//! Watch a ring of traps capture agents, step by step.
//!
//! Renders the per-trap occupancy of the §3 ring-of-traps protocol as an
//! ASCII strip at exponentially spaced checkpoints, making the paper's
//! intuition visible: excess agents descend inside traps (filling gaps —
//! Fact 1), gates eject every other arrival to the next trap, and the
//! weight `K = k₁ + 2k₂` only ever decreases.
//!
//! Run with: `cargo run --release --example trap_dynamics`

use ssr::prelude::*;

fn render(protocol: &RingOfTraps, counts: &[u32]) -> String {
    let chain = protocol.chain();
    let mut out = String::new();
    for t in chain.traps() {
        out.push('[');
        for b in (0..chain.size(t)).rev() {
            let c = counts[chain.state(t, b) as usize];
            out.push(match c {
                0 => '.',
                1 => 'o',
                2..=9 => char::from_digit(c, 10).unwrap(),
                _ => '#',
            });
        }
        out.push(']');
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 42; // m = 6: six traps of size 7
    let protocol = RingOfTraps::new(n);

    // Start with everything stacked on the gate of trap 0.
    let mut sim = Simulation::new(&protocol, vec![0; n], 4)?;

    println!(
        "ring of {} traps, n = {n}; '.' gap, 'o' single, digits = stacked \
         (top inner state on the left, gate on the right)\n",
        protocol.num_traps()
    );
    println!(
        "{:>10}  {}   K = {}",
        0,
        render(&protocol, sim.counts()),
        protocol.weight_k(sim.counts())
    );

    let mut checkpoint = 1_000u64;
    while !sim.is_silent() {
        let budget = checkpoint.saturating_sub(sim.interactions());
        sim.run_for(budget);
        println!(
            "{:>10}  {}   K = {}  tidy = {}",
            sim.interactions(),
            render(&protocol, sim.counts()),
            protocol.weight_k(sim.counts()),
            protocol.is_tidy(sim.counts()),
        );
        checkpoint *= 2;
    }
    println!(
        "\nsilent after {} interactions (parallel time {:.0}); every trap \
         fully stabilised",
        sim.interactions(),
        sim.parallel_time()
    );
    Ok(())
}

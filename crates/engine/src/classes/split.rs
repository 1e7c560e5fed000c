//! The split law: one law, two placements.
//!
//! A batch hands each item of a weighted list (a class, a tree node's
//! children, a block's leaves, the extra states, a sparse group's pairs)
//! its multinomial share of `k` draws. Above `BERNOULLI_MAX_N` draws the
//! shares are chained binomials ([`chain_binomials`]). At or below it,
//! each draw is one offset `below(total)`, and an item takes the offsets
//! inside its stretch `[end_{i−1}, end_i)` of the running weight sum.
//! Those offsets are placed in one of two ways, with the same RNG draws
//! and the same output:
//!
//! - an item list ([`chain_split`]: extra states, sparse groups) sorts the
//!   offsets and sweeps the items once;
//! - a [`BlockTree`] block ([`place_in_block`]) writes its ≤ [`BLOCK`]
//!   running sums to an array and finds each offset's leaf by a
//!   branch-free binary search, counting hits per leaf, then emits them
//!   in leaf order. A batch's block splits are small (a few to a few
//!   dozen draws), so dropping the sort is most of their cost.
//!
//! [`BlockTree`]: super::tree::BlockTree

use super::tree::{Bits, BLOCK};
use crate::rng::{Xoshiro256, BERNOULLI_MAX_N};

/// Split `k` draws across weighted `items` — a multinomial over the
/// weights, `total` being their sum. Appends `(slot, draws)` in item order
/// for every slot that received draws, so a zero-weight slot never
/// appears.
///
/// Two regimes, one law:
///
/// - `k ≤ BERNOULLI_MAX_N`: each draw is an offset `below(total)`; the
///   offsets are sorted and assigned in one pass, item `i` receiving those
///   in `[acc_{i−1}, acc_i)` of the running weight sum. Each offset lands
///   on item `i` with probability `w_i/total`, so this is the multinomial
///   exactly, for `k` uniforms and integer arithmetic only. (Chained
///   binomials here would spend up to `k` uniforms *per item*, since a
///   binomial of `n ≤ BERNOULLI_MAX_N` counts `n` Bernoulli trials.)
/// - larger `k`: [`chain_binomials`].
///
/// This is the one definition of the split law: the count engine's
/// extra-state, cross-extra and sparse-group splits delegate here; a
/// [`BlockTree`](super::tree::BlockTree)'s in-block splits place the same
/// offsets without the sort ([`place_in_block`]) or call
/// [`chain_binomials`]; and the class
/// split and every tree node split draw through the same [`chain_draw`],
/// so a change to the law cannot leave them diverged unnoticed (the two
/// placements are pinned equal by a test).
pub(crate) fn chain_split<S: Copy>(
    rng: &mut Xoshiro256,
    k: u64,
    total: u64,
    items: impl Iterator<Item = (S, u64)>,
    out: &mut Vec<(S, u64)>,
) {
    if k == 0 {
        return;
    }
    if k <= BERNOULLI_MAX_N {
        let mut buf = [0u64; BERNOULLI_MAX_N as usize];
        let offs = &mut buf[..k as usize];
        for o in offs.iter_mut() {
            *o = rng.below(total);
        }
        offs.sort_unstable();
        let mut j = 0;
        let mut acc = 0u64;
        for (slot, w) in items {
            acc += w;
            let first = j;
            while j < offs.len() && offs[j] < acc {
                j += 1;
            }
            if j > first {
                out.push((slot, (j - first) as u64));
                if j == offs.len() {
                    break;
                }
            }
        }
        debug_assert_eq!(j, offs.len(), "chain split left draws unassigned");
        return;
    }
    chain_binomials(rng, k, total, items, out);
}

/// Split `k` draws across weighted `items` (weights summing to `total`)
/// by chained conditional binomials: each item in turn takes its
/// [`chain_draw`] of the draws left over the weight left. Exact only as
/// far as [`Xoshiro256::binomial`] is. Appends `(slot, draws)` in item
/// order for every slot that received draws.
pub(crate) fn chain_binomials<S: Copy>(
    rng: &mut Xoshiro256,
    mut k: u64,
    total: u64,
    items: impl Iterator<Item = (S, u64)>,
    out: &mut Vec<(S, u64)>,
) {
    let mut w_rem = total;
    for (slot, w) in items {
        if k == 0 {
            break;
        }
        let draws = chain_draw(rng, k, w, w_rem);
        if draws > 0 {
            out.push((slot, draws));
        }
        k -= draws;
        w_rem -= w;
    }
    debug_assert_eq!(k, 0, "chain split left draws unassigned");
}

/// How many of `k` draws go to an item of weight `w` when `w_rem ≥ w` is
/// the weight of it and every item after it: all of them when it holds
/// all of that weight, else `Binomial(k, w / w_rem)` (0, with no RNG draw,
/// when `w = 0`).
#[inline]
pub(super) fn chain_draw(rng: &mut Xoshiro256, k: u64, w: u64, w_rem: u64) -> u64 {
    if w >= w_rem {
        k
    } else {
        rng.binomial(k, w as f64 / w_rem as f64)
    }
}

/// [`chain_split`]'s small-`k` regime within one block, without its sort:
/// the same `k ≤ BERNOULLI_MAX_N` offsets `below(sum)`, in the same
/// order, each located by a branch-free binary search over the block's
/// ≤ [`BLOCK`] running weight sums (padded with `u64::MAX`, which no
/// offset reaches). A leaf takes offset `o` iff its running sums bracket
/// it, `end_{i−1} ≤ o < end_i`, as in the sorted sweep, so a zero-weight
/// leaf takes none. Hits are counted per leaf and emitted in leaf order:
/// the sweep's output, draw for draw.
#[inline]
pub(super) fn place_in_block(
    rng: &mut Xoshiro256,
    k: u64,
    sum: u64,
    b: usize,
    leaves: impl Iterator<Item = (usize, u64)>,
    out: &mut Vec<(usize, u64)>,
) {
    debug_assert!(
        k <= BERNOULLI_MAX_N,
        "block placement past the sweep regime"
    );
    let mut ends = [u64::MAX; BLOCK];
    let mut slot = [0u8; BLOCK];
    let mut acc = 0u64;
    for (i, (j, w)) in leaves.enumerate() {
        acc += w;
        ends[i] = acc;
        slot[i] = j as u8;
    }
    debug_assert_eq!(acc, sum, "block sum inconsistent with derived leaf weights");
    let mut hits = [0u8; BLOCK];
    let mut hit = 0u64;
    for _ in 0..k {
        let o = rng.below(sum);
        // The number of running sums `≤ o`, i.e. the first `i` with
        // `o < ends[i]`, found in six halvings without a branch.
        let mut i = 0;
        for half in [32, 16, 8, 4, 2, 1] {
            i += half * (ends[i + half - 1] <= o) as usize;
        }
        hits[i] += 1;
        hit |= 1 << i;
    }
    for i in Bits(hit) {
        out.push((b * BLOCK + slot[i] as usize, hits[i] as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::tests::RuleMask;
    use crate::classes::tree::{eq_weight_of, BlockLeaves};
    use crate::classes::ClassState;
    use proptest::prelude::*;

    /// Key of a count vector for the split-law histograms.
    fn count_key(counts: &[u64], k: u64) -> u64 {
        counts.iter().fold(0, |key, &c| key * (k + 1) + c)
    }

    /// Exact multinomial pmf of `k` draws over `weights`, keyed by
    /// [`count_key`] (zero-weight items always count 0).
    fn multinomial_pmf(weights: &[u64], k: u64) -> std::collections::HashMap<u64, f64> {
        let total = weights.iter().sum::<u64>() as f64;
        let ln_fact = |n: u64| (2..=n).map(|i| (i as f64).ln()).sum::<f64>();
        let positive: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0).collect();
        let (&last, free) = positive.split_last().expect("some positive weight");
        let mut pmf = std::collections::HashMap::new();
        let mut counts = vec![0u64; weights.len()];
        // Odometer over the counts of every positive item but the last,
        // which takes the remainder.
        loop {
            let used: u64 = free.iter().map(|&i| counts[i]).sum();
            if used <= k {
                counts[last] = k - used;
                let ln = positive.iter().fold(ln_fact(k), |ln, &i| {
                    let c = counts[i];
                    ln + c as f64 * (weights[i] as f64 / total).ln() - ln_fact(c)
                });
                pmf.insert(count_key(&counts, k), ln.exp());
            }
            let mut d = 0;
            loop {
                let Some(&i) = free.get(d) else {
                    return pmf;
                };
                counts[i] += 1;
                if counts[i] <= k {
                    break;
                }
                counts[i] = 0;
                d += 1;
            }
        }
    }

    /// Run `split` (`k` draws over `weights`) `rounds` times and compare
    /// the joint counts with the exact multinomial in total variation.
    /// A correct sampler's empirical distance stays below the noise floor
    /// `½·Σ sd(outcome frequency)` (`E|X − Np| ≤ sd`), which the test
    /// design keeps at 0.003, so a law 0.01 away fails the
    /// `floor + 0.003` bound. Every round must conserve `k`, emit slots in
    /// ascending order, and never emit a zero-weight slot or a zero count.
    fn assert_split_law(
        weights: &[u64],
        k: u64,
        rounds: u64,
        mut split: impl FnMut(&mut Vec<(usize, u64)>),
    ) {
        let mut hist = std::collections::HashMap::<u64, u64>::new();
        let mut out = Vec::new();
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..rounds {
            out.clear();
            split(&mut out);
            counts.fill(0);
            let mut prev = None;
            for &(slot, c) in &out {
                assert!(c > 0, "k = {k}: slot {slot} emitted with 0 draws");
                assert!(weights[slot] > 0, "k = {k}: zero-weight slot {slot} drawn");
                assert!(prev < Some(slot), "k = {k}: slots out of order: {out:?}");
                prev = Some(slot);
                counts[slot] = c;
            }
            assert_eq!(
                counts.iter().sum::<u64>(),
                k,
                "k = {k}: draws not conserved"
            );
            *hist.entry(count_key(&counts, k)).or_default() += 1;
        }
        let pmf = multinomial_pmf(weights, k);
        let n = rounds as f64;
        let floor: f64 = pmf.values().map(|p| 0.5 * (p * (1.0 - p) / n).sqrt()).sum();
        assert!(
            floor <= 0.003,
            "k = {k}: {rounds} rounds leave a noise floor of {floor:.4}"
        );
        let mut tv: f64 = pmf
            .iter()
            .map(|(key, p)| (hist.get(key).copied().unwrap_or(0) as f64 / n - p).abs())
            .sum();
        tv += hist
            .iter()
            .filter(|(key, _)| !pmf.contains_key(key))
            .map(|(_, &c)| c as f64 / n)
            .sum::<f64>();
        tv *= 0.5;
        assert!(
            tv <= floor + 0.003,
            "k = {k}: total variation {tv:.4} from the exact multinomial (floor {floor:.4})"
        );
    }

    /// `chain_split` realises the multinomial law exactly up to
    /// `BERNOULLI_MAX_N` draws, called directly (the sorted-offset sweep)
    /// and as a block's split ([`place_in_block`]). Above it the chained
    /// binomials inherit `Xoshiro256::binomial`'s approximations, so only
    /// conservation and the marginal means are checked there.
    #[test]
    fn chain_split_matches_the_exact_multinomial() {
        // Zero weights at the start, in the middle and at the end, and one
        // dominant weight.
        let weights = [0u64, 2, 0, 57, 1, 0];
        let total: u64 = weights.iter().sum();
        let items = || weights.iter().copied().enumerate();
        for (k, seed) in [(1u64, 1u64), (2, 2), (5, 3), (BERNOULLI_MAX_N, 4)] {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            assert_split_law(&weights, k, 1_000_000, |out| {
                chain_split(&mut rng, k, total, items(), out)
            });
            let mut rng = Xoshiro256::seed_from_u64(seed + 100);
            let mut split = Vec::new();
            assert_split_law(&weights, k, 1_000_000, |out| {
                // The same weights as block 1 of a block tree.
                split.clear();
                BlockLeaves::split(items(), 1, k, total, &mut rng, &mut split);
                out.extend(split.iter().map(|&(i, c)| (i - BLOCK, c)));
            });
        }
        for (k, seed) in [(BERNOULLI_MAX_N + 1, 5u64), (1000, 6)] {
            let rounds = 20_000u64;
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut sums = [0u64; 6];
            let mut out = Vec::new();
            for _ in 0..rounds {
                out.clear();
                chain_split(&mut rng, k, total, items(), &mut out);
                assert_eq!(out.iter().map(|&(_, c)| c).sum::<u64>(), k);
                for &(slot, c) in &out {
                    assert!(c > 0 && weights[slot] > 0, "k = {k}: ({slot}, {c}) emitted");
                    sums[slot] += c;
                }
            }
            for (slot, &w) in weights.iter().enumerate() {
                let p = w as f64 / total as f64;
                let mean = sums[slot] as f64 / rounds as f64;
                let se = (k as f64 * p * (1.0 - p) / rounds as f64).sqrt();
                assert!(
                    (mean - k as f64 * p).abs() <= 5.0 * se + 1e-9,
                    "k = {k}, slot {slot}: mean {mean:.3} vs {:.3}",
                    k as f64 * p
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A block split of `k ≤ BERNOULLI_MAX_N` draws places them as
        /// `chain_split`'s sorted sweep does: the same `(leaf, draws)`
        /// list and the same RNG state after it, for every block of the
        /// `eq` view (dense blocks read leaf by leaf, sparse ones through
        /// the live word) and the `rank_occ` view (every leaf, zero-count
        /// ones included), with a full or a partial last block, at
        /// `k` ∈ {1, 8, 9, 63, 64}. Small counts put many offsets exactly
        /// on a leaf's running-sum edge.
        #[test]
        fn block_placement_is_the_sorted_sweep(
            seed in 0u64..1_000_000,
            blocks in 1usize..4,
            partial in any::<bool>(),
            dense in any::<bool>(),
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let short = if partial { 1 + rng.below(BLOCK as u64 - 1) as usize } else { 0 };
            let ranks = blocks * BLOCK - short;
            let rules: Vec<bool> = (0..ranks).map(|_| rng.below(5) != 0).collect();
            let counts: Vec<u32> = (0..ranks)
                .map(|_| match (dense, rng.below(16)) {
                    (true, 0) => rng.below(2) as u32,
                    (true, _) => 2 + rng.below(4) as u32,
                    (false, x) if x < 5 => 0,
                    (false, _) => rng.below(4) as u32,
                })
                .collect();
            let n = counts.iter().map(|&c| c as usize).sum();
            let p = RuleMask { n, rules, extras: 0 };
            let st = ClassState::new(&p, counts.clone()).unwrap();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for b in 0..ranks.div_ceil(BLOCK) {
                let leaves = b * BLOCK..(b * BLOCK + BLOCK).min(ranks);
                let eq: Vec<(usize, u64)> = leaves
                    .clone()
                    .map(|s| (s, eq_weight_of(counts[s] as u64) * p.rules[s] as u64))
                    .collect();
                let occ: Vec<(usize, u64)> = leaves.map(|s| (s, counts[s] as u64)).collect();
                for (view, items) in [(0, &eq), (1, &occ)] {
                    let sum: u64 = items.iter().map(|&(_, w)| w).sum();
                    if sum == 0 {
                        continue;
                    }
                    for k in [1, 8, 9, 63, BERNOULLI_MAX_N] {
                        let stream = crate::rng::derive_seed(seed, (b * 2 + view) as u64 * 100 + k);
                        let mut rng_got = Xoshiro256::seed_from_u64(stream);
                        let mut rng_want = rng_got.clone();
                        got.clear();
                        want.clear();
                        match view {
                            0 => BlockLeaves::split(st.eq_block(b), b, k, sum, &mut rng_got, &mut got),
                            _ => BlockLeaves::split(st.rank_block(b), b, k, sum, &mut rng_got, &mut got),
                        }
                        chain_split(&mut rng_want, k, sum, items.iter().copied(), &mut want);
                        prop_assert_eq!(&got, &want, "block {} view {} k {}", b, view, k);
                        prop_assert_eq!(rng_got.next_u64(), rng_want.next_u64());
                    }
                }
            }
        }
    }
}

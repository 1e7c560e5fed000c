//! Count-based batched simulation: `O(#states)` memory, amortised
//! sub-interaction stepping.
//!
//! Every protocol in this workspace is *anonymous*: the transition function
//! sees states, never agent identities, so the Markov chain is fully
//! determined by the per-state occupancy vector. [`CountSimulation`]
//! exploits this twice:
//!
//! 1. **Exact mode** — the embedded jump chain: sample a productive
//!    ordered state pair proportionally to its weight, apply the rewrite to
//!    the counts, and account for the skipped null interactions with a
//!    geometric draw. This is *exactly* the naive simulator's process,
//!    without spending time on nulls. With batching off
//!    ([`CountSimulation::with_batching`]) the engine only ever takes exact
//!    steps; that configuration is the `jump` engine kind
//!    ([`EngineKind::Jump`](crate::engine::EngineKind::Jump)), and
//!    `tests/exact_chain_golden.rs` pins its per-seed trajectories.
//! 2. **Batch mode** — far from silence, consecutive productive steps are
//!    *statistically exchangeable*: with the class weights frozen, a batch
//!    of `B` steps splits multinomially first across the declared
//!    [`InteractionSchema`] classes, then within each class:
//!
//!    * **equal-rank** — per-state weights `c_s(c_s − 1)`, summed per
//!      block of 64 states in a block tree. The split descends the tree
//!      by recursive **binomial splitting** (the classic trick from
//!      batched population-protocol simulation, cf. Berenbrink et al.),
//!      switching to direct weighted descents once a subtree holds ≤ 8
//!      draws, and finishes each block it reaches with the shared split
//!      law (`classes::split`): ≤ 64 draws take one uniform offset each,
//!      placed by a branch-free search over the block's running sums
//!      (`classes::split::place_in_block`); only larger shares fall back
//!      to chained conditional binomials;
//!    * **extra–extra** — hierarchical split over ordered extra-state
//!      pairs (`O(occupied extras)` chain splits — extra spaces are small
//!      by design, `O(log n)` for the tree protocol);
//!    * **rank–extra cross** — direction, then extra state, then a
//!      binomial split **across the rank population** via the occupancy
//!      tree (this is the hypergeometric-style two-population split that
//!      lets the line/tree reset phases batch);
//!    * **sparse pairs** — a two-level split through the per-initiator
//!      group hierarchy (see the `classes::sparse` module docs): the
//!      batch's sparse share is first
//!      chain-split across the occupied groups under the coordinator
//!      stream, then each group's pair tree splits its own share as an
//!      independent task. Draw-for-draw this equals one flat split over
//!      all pairs, but the per-group tasks parallelise.
//!
//!    All `B` null gaps are accounted at once with a single
//!    negative-binomial draw. Weights are frozen for the duration of one
//!    batch; the batch size is capped so no class weight can drift by more
//!    than ~25% within a batch, which keeps the stabilisation-time
//!    distribution statistically indistinguishable from the exact chain
//!    (KS-tested in `tests/cross_simulator.rs`). For the sparse class the cap is
//!    **per-pair relative**: the batch size is bounded by the incremental
//!    drift scales so each pair (a,b)'s expected draws stay under
//!    `min(c_a, c_b)/8` and each state's gross sparse drain under
//!    `c_s/4` — replacing the old class-global `2·partner-sum` rein that
//!    was ~4× tighter and recomputed from scratch every batch. Sparse
//!    eligibility likewise counts only *positive-weight* pairs, so a
//!    large declared-but-dormant rule set (τ² pairs with a handful
//!    occupied, the loose-leader-election shape) no longer forces exact
//!    stepping.
//!
//! Batch mode engages whenever every positive-weight class is declared
//! exchangeable and the safe batch size is large enough to pay for the
//! split overhead; otherwise the engine falls back to exact stepping for
//! that step. Correctness near silence is therefore always the exact jump
//! chain. Both modes live in one stepping method,
//! [`Engine::advance_to`], which decides
//! between a batch and an exact step once per quantum; the run loops are
//! the ones the [`Engine`] trait provides.
//!
//! ## Parallel per-class splits on a persistent worker pool
//!
//! Within one batch the per-class splits are conditionally independent
//! given the class totals, so they can run on separate threads. The batch
//! draws one `batch_seed` from the main RNG, plans a deterministic list of
//! *split tasks* (equal-rank subtrees, the extra–extra split, one task per
//! cross (direction, extra-state) slice — large slices pre-partitioned
//! down the occupancy tree — and one task per occupied sparse group)
//! using a coordinator stream derived from it, and then executes every
//! task under its own
//! `derive_seed(batch_seed, task)`-derived stream. Results are merged in
//! task order, so a run is **bit-identical for a fixed seed regardless of
//! the thread count** (including one) — see
//! [`CountSimulation::with_threads`].
//!
//! The worker threads are spawned **once per engine** (in `with_threads`)
//! and parked on std mpsc channels between batches, not re-spawned per
//! batch. Each eligible batch moves the frozen weight state and the task
//! list into a shared, reference-counted job, wakes the workers with one
//! channel send each, joins them through a done channel, and recovers the
//! state by unwrapping the job — no `unsafe`, no external crates, and the
//! per-batch dispatch cost is a few channel operations instead of a
//! thread spawn. That lowers the draws threshold at which parallelism
//! pays (see `POOL_MIN_DRAWS_PER_WORKER`).
//!
//! # Examples
//!
//! ```
//! use ssr_engine::count::CountSimulation;
//! use ssr_engine::engine::Engine;
//! use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};
//!
//! struct Ag { n: usize }
//! impl Protocol for Ag {
//!     fn name(&self) -> &str { "A_G" }
//!     fn population_size(&self) -> usize { self.n }
//!     fn num_states(&self) -> usize { self.n }
//!     fn num_rank_states(&self) -> usize { self.n }
//!     fn transition(&self, i: State, r: State) -> Option<(State, State)> {
//!         (i == r).then(|| (i, (r + 1) % self.n as State))
//!     }
//! }
//! impl InteractionSchema for Ag {
//!     fn interaction_classes(&self) -> Vec<ClassSpec> {
//!         vec![ClassSpec::equal_rank()]
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Ag { n: 10_000 };
//! let mut sim = CountSimulation::new(&p, vec![0; 10_000], 42)?;
//! let report = sim.run_until_silent(u64::MAX)?;
//! assert!(sim.is_silent());
//! assert!(report.productive_interactions >= 9_999);
//! # Ok(())
//! # }
//! ```
//!
//! [`InteractionSchema`]: crate::protocol::InteractionSchema

use crate::classes::{chain_binomials, Class, ClassState, KeyGroup, SplitTask};
use crate::engine::{ByzOverlay, CappedAdvance, CountObserver, Engine};
use crate::error::ConfigError;
use crate::init;
use crate::protocol::{InteractionSchema, State};
use crate::rng::{derive_seed, Xoshiro256};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Below this safe batch size, batching cannot pay for its overhead and
/// the engine steps exactly. A class with per-batch split overhead beyond
/// `O(occupied)` raises the effective threshold to that overhead
/// ([`ClassState::drift`]) so a batch always amortises it.
const MIN_BATCH: u64 = 64;

/// After the safe batch size drops below the threshold, stay in exact
/// mode for this many steps before re-checking — the productive weight
/// changes by O(drift scale) per step, so eligibility cannot swing back
/// instantly, and checking per step would tax the exact hot loop.
const EXACT_RECHECK_INTERVAL: u32 = 32;

/// Re-derive the exact maximum productive equal-rank occupancy every this
/// many batches (between refreshes the tracked bound is a safe
/// over-estimate).
const MAX_REFRESH_INTERVAL: u32 = 32;

/// Batches below this many draws **per participating thread** run their
/// tasks on the calling thread. The threshold adapts to the thread count:
/// with the persistent pool a dispatch costs a few channel operations and
/// a worker wake-up (microseconds), far below the old per-batch
/// `thread::scope` spawn tax, so parallelism pays off at roughly a
/// quarter of the former fixed 8192-draw floor. Affects wall-clock only —
/// the trajectory is identical either way.
const POOL_MIN_DRAWS_PER_WORKER: u64 = 1024;

/// One coalesced group of identical rewrites applied by a batch step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchGroup {
    before: (State, State),
    after: (State, State),
    applied: u64,
}

/// One batch's shared job: the frozen weight state, the planned task
/// list, a work-stealing cursor, and one output slot per task. Ownership
/// of the state travels with the job — the engine moves it in, every
/// participating thread runs tasks against it through the `Arc`, and the
/// engine unwraps the `Arc` to move it back out. This is what lets
/// long-lived (`'static`) pool workers borrow per-batch data without
/// `unsafe`.
struct BatchJob {
    state: ClassState,
    tasks: Vec<SplitTask>,
    batch_seed: u64,
    next: AtomicUsize,
    slots: Vec<Mutex<Vec<KeyGroup>>>,
}

/// Claim and run tasks off `job` until the cursor is exhausted. Task `i`
/// always draws from `derive_seed(batch_seed, 1 + i)` and writes slot
/// `i`, so outputs are scheduling-independent. Shared by the coordinator
/// thread and every pool worker.
fn run_job_tasks(job: &BatchJob, split: &mut Vec<(usize, u64)>) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.tasks.len() {
            break;
        }
        let mut rng = Xoshiro256::seed_from_u64(derive_seed(job.batch_seed, 1 + i as u64));
        // Recycle the slot's previous-batch allocation.
        let mut buf = std::mem::take(&mut *job.slots[i].lock().expect("slot poisoned"));
        buf.clear();
        job.state.run_task(&job.tasks[i], &mut rng, split, &mut buf);
        *job.slots[i].lock().expect("slot poisoned") = buf;
    }
}

/// Signals batch completion to the coordinator when dropped — even if the
/// worker panics mid-task, so the coordinator never deadlocks waiting for
/// a dead worker. Releases the worker's handle on the shared job *before*
/// signalling, so once the coordinator has collected every signal it
/// holds the only reference and can unwrap the `Arc`.
struct JobGuard<'a> {
    job: Option<Arc<BatchJob>>,
    done: &'a mpsc::Sender<bool>,
    ok: bool,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.job = None;
        let _ = self.done.send(self.ok);
    }
}

/// Body of one persistent pool worker: park on the job channel, run tasks
/// from each job that arrives, signal completion. Exits when the engine
/// (and with it the sender) is dropped.
fn worker_loop(rx: mpsc::Receiver<Arc<BatchJob>>, done: mpsc::Sender<bool>) {
    let mut split: Vec<(usize, u64)> = Vec::new();
    while let Ok(job) = rx.recv() {
        let mut guard = JobGuard {
            job: Some(job),
            done: &done,
            ok: false,
        };
        run_job_tasks(guard.job.as_ref().expect("job just stored"), &mut split);
        guard.ok = true;
    }
}

/// A persistent pool of parked split workers, created once per engine by
/// [`CountSimulation::with_threads`] and reused for every eligible batch
/// (it survives snapshot restores). Pure std: mpsc channels for dispatch
/// and completion, no `unsafe`, no busy-waiting — idle workers block in
/// `recv`.
struct WorkerPool {
    /// One dispatch channel per worker.
    senders: Vec<mpsc::Sender<Arc<BatchJob>>>,
    /// Completion signals (`true` = worker finished its share cleanly).
    done_rx: mpsc::Receiver<bool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Recycled per-task output slots (kept across batches so slot `Vec`s
    /// amortise their allocations).
    slots_scratch: Vec<Mutex<Vec<KeyGroup>>>,
}

impl WorkerPool {
    /// Spawn `helpers` parked worker threads (the coordinator thread also
    /// runs tasks, so an engine with `threads = t` builds a pool of
    /// `t − 1` helpers).
    fn new(helpers: usize) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        let mut senders = Vec::with_capacity(helpers);
        let mut handles = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            let (tx, rx) = mpsc::channel::<Arc<BatchJob>>();
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(rx, done)));
            senders.push(tx);
        }
        WorkerPool {
            senders,
            done_rx,
            handles,
            slots_scratch: Vec::new(),
        }
    }

    /// Helper workers in the pool (total parallelism is one more: the
    /// coordinator participates).
    fn helpers(&self) -> usize {
        self.senders.len()
    }

    /// Run `tasks` against `state` on the pool plus the calling thread and
    /// append the outputs to `out` in task order. `state` and `tasks` are
    /// moved into the shared job for the duration and moved back out
    /// before returning.
    ///
    /// # Panics
    ///
    /// Panics if any worker panicked while running a split task.
    fn execute(
        &mut self,
        state: &mut ClassState,
        tasks: &mut Vec<SplitTask>,
        batch_seed: u64,
        split: &mut Vec<(usize, u64)>,
        out: &mut Vec<KeyGroup>,
    ) {
        let mut slots = std::mem::take(&mut self.slots_scratch);
        if slots.len() > tasks.len() {
            slots.truncate(tasks.len());
        } else {
            slots.resize_with(tasks.len(), || Mutex::new(Vec::new()));
        }
        let job = Arc::new(BatchJob {
            state: std::mem::take(state),
            tasks: std::mem::take(tasks),
            batch_seed,
            next: AtomicUsize::new(0),
            slots,
        });
        let mut dispatched = 0usize;
        for tx in &self.senders {
            if tx.send(Arc::clone(&job)).is_ok() {
                dispatched += 1;
            }
        }
        run_job_tasks(&job, split);
        let mut ok = true;
        for _ in 0..dispatched {
            ok &= self.done_rx.recv().unwrap_or(false);
        }
        // Every worker released its handle before signalling, so the
        // coordinator now holds the only reference.
        let job =
            Arc::try_unwrap(job).unwrap_or_else(|_| panic!("a worker still holds the batch job"));
        *state = job.state;
        *tasks = job.tasks;
        let mut slots = job.slots;
        assert!(ok, "split worker panicked");
        for slot in &mut slots {
            out.append(slot.get_mut().expect("slot poisoned"));
        }
        self.slots_scratch = slots;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the dispatch channels wakes every parked worker into a
        // clean exit; then reap the threads.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Run every task — serially, or on the persistent pool when one exists
/// and the batch is big enough for the dispatch to pay — and merge the
/// outputs in task order. Task `i` always draws from the stream
/// `derive_seed(batch_seed, 1 + i)`, so the merged keys are identical for
/// every thread count.
fn execute_tasks(
    state: &mut ClassState,
    tasks: &mut Vec<SplitTask>,
    batch_seed: u64,
    pool: Option<&mut WorkerPool>,
    b: u64,
    split_scratch: &mut Vec<(usize, u64)>,
    out: &mut Vec<KeyGroup>,
) {
    if let Some(pool) = pool {
        let engaged = (pool.helpers() + 1).min(tasks.len());
        if engaged > 1 && b >= POOL_MIN_DRAWS_PER_WORKER * engaged as u64 {
            pool.execute(state, tasks, batch_seed, split_scratch, out);
            return;
        }
    }
    for (i, task) in tasks.iter().enumerate() {
        let mut rng = Xoshiro256::seed_from_u64(derive_seed(batch_seed, 1 + i as u64));
        state.run_task(task, &mut rng, split_scratch, out);
    }
}

/// Count-based simulation with far-from-silence batching.
///
/// Memory is `O(#states)` — there is no agent vector — so populations of
/// `n = 10⁷…10⁹` fit comfortably as long as the protocol's state space
/// does.
pub struct CountSimulation<'a, P: InteractionSchema + ?Sized> {
    protocol: &'a P,
    state: ClassState,
    /// Interaction clock, `u128` so populations beyond `n = 2³⁰` cannot
    /// wrap it: total interactions to silence grow like `n² log n / W`
    /// draws and pass `u64::MAX ≈ 1.8·10¹⁹` around `n = 2³¹`.
    interactions: u128,
    productive: u64,
    ordered_pairs: u128,
    rng: Xoshiro256,
    batching: bool,
    batches_since_refresh: u32,
    /// Exact steps to take before re-checking batch eligibility (0 =
    /// check now); keeps the check off the exact-mode hot path.
    exact_steps_until_recheck: u32,
    /// Worker threads for batch splits (1 = everything on the calling
    /// thread). Never affects the trajectory, only wall-clock.
    threads: usize,
    /// Persistent parked workers backing `threads > 1`; created once in
    /// [`with_threads`](Self::with_threads) and reused for every eligible
    /// batch (and across snapshot restores).
    pool: Option<WorkerPool>,
    task_scratch: Vec<SplitTask>,
    split_scratch: Vec<(usize, u64)>,
    key_scratch: Vec<KeyGroup>,
    group_scratch: Vec<BatchGroup>,
    /// Byzantine/stuck-at occupancy overlay; `None` when inactive. When
    /// active, exact steps veto stuck participants' rewrites and batch
    /// groups are binomially thinned into update/no-update subgroups —
    /// both paths maintain `counts[s] ≥ byz[s]`.
    byz: Option<ByzOverlay>,
}

impl<'a, P: InteractionSchema + ?Sized> CountSimulation<'a, P> {
    /// Start from an explicit configuration, with batching enabled.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on population or state-range mismatch.
    pub fn new(protocol: &'a P, config: Vec<State>, seed: u64) -> Result<Self, ConfigError> {
        let n = protocol.population_size();
        if config.len() != n {
            return Err(ConfigError::WrongPopulation {
                expected: n,
                got: config.len(),
            });
        }
        init::validate(&config, protocol.num_states())?;
        Self::from_counts(protocol, init::counts(&config, protocol.num_states()), seed)
    }

    /// Start from per-state occupancy counts (must sum to the population),
    /// with batching enabled.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::WrongPopulation`] if counts do not sum to
    /// `n` or the counts vector length differs from the state-space size.
    pub fn from_counts(protocol: &'a P, counts: Vec<u32>, seed: u64) -> Result<Self, ConfigError> {
        let n = protocol.population_size();
        let state = ClassState::new(protocol, counts)?;
        Ok(CountSimulation {
            protocol,
            state,
            interactions: 0,
            productive: 0,
            ordered_pairs: (n as u128) * (n as u128).saturating_sub(1),
            rng: Xoshiro256::seed_from_u64(seed),
            batching: true,
            batches_since_refresh: 0,
            exact_steps_until_recheck: 0,
            threads: 1,
            pool: None,
            task_scratch: Vec::new(),
            split_scratch: Vec::new(),
            key_scratch: Vec::new(),
            group_scratch: Vec::new(),
            byz: None,
        })
    }

    /// Enable or disable batch mode. With batching off the engine is the
    /// exact jump chain — every quantum is one productive interaction —
    /// and reports itself as the `jump` engine. Exact mode never
    /// dispatches to the worker pool, so it needs no
    /// [`with_threads`](Self::with_threads).
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }

    /// Whether batch mode is enabled.
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// Set the number of worker threads for batch splits (0 = one per
    /// available core, 1 = serial, the default).
    ///
    /// For `threads > 1` this spawns a **persistent pool** of
    /// `threads − 1` parked workers that lives as long as the engine; the
    /// calling thread coordinates and runs tasks too. Each batch's
    /// per-class split work is pre-partitioned into tasks with their own
    /// seed-derived RNG streams and merged in task order, so for a fixed
    /// seed the trajectory is **bit-identical regardless of the thread
    /// count** — threads buy wall-clock, never change results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let helpers = self.threads - 1;
        let rebuild = self.pool.as_ref().map(WorkerPool::helpers) != Some(helpers);
        if rebuild {
            self.pool = (helpers > 0).then(|| WorkerPool::new(helpers));
        }
        self
    }

    /// Worker threads used for batch splits.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of productive ordered pairs in the current configuration.
    pub fn productive_pairs(&self) -> u64 {
        self.state.productive_pairs()
    }

    /// Sample the productive pair for an already-scheduled chain event,
    /// apply the transition (subject to Byzantine vetoes) and return the
    /// rewrite: the exact step's half after its null gap is drawn.
    fn sample_and_apply(&mut self) -> ((State, State), (State, State)) {
        let (si, sr) = self.state.sample_pair(&mut self.rng);
        let (mut si2, mut sr2) = self.rewrite((si, sr));
        if let Some(byz) = &self.byz {
            let (veto_i, veto_r) = byz.veto(&mut self.rng, &self.state.counts, si, sr);
            if veto_i {
                si2 = si;
            }
            if veto_r {
                sr2 = sr;
            }
        }
        if si != si2 {
            self.state.move_agents(si, si2, 1);
        }
        if sr != sr2 {
            self.state.move_agents(sr, sr2, 1);
        }
        ((si, sr), (si2, sr2))
    }

    /// The rewrite of a pair the schema declares productive, which the
    /// protocol contract makes a non-identity `Some`.
    #[inline]
    fn rewrite(&self, (a, b): (State, State)) -> (State, State) {
        let after = self.protocol.transition(a, b).unwrap_or_else(|| {
            panic!(
                "schema declared ({a},{b}) productive but transition \
                 returned None (protocol contract violation)"
            )
        });
        debug_assert!(after != (a, b), "identity rewrite for ({a},{b})");
        after
    }

    /// Drift scale and amortisation threshold of the current
    /// configuration, or `None` when some positive-weight class is not
    /// exchangeable: the largest of the positive classes'
    /// [`ClassState::drift`] values (the threshold at least
    /// [`MIN_BATCH`]). The safe batch size is `W / (8·scale)`.
    fn batch_params(&self, weights: [u64; 4]) -> Option<(u64, u64)> {
        let mut scale = 1u64;
        let mut threshold = MIN_BATCH;
        for c in Class::ALL {
            if weights[c as usize] == 0 {
                continue;
            }
            if !self.state.exchangeable(c) {
                return None;
            }
            let (class_scale, class_threshold) = self.state.drift(c);
            scale = scale.max(class_scale);
            threshold = threshold.max(class_threshold);
        }
        Some((scale, threshold))
    }

    /// Re-derive the lazily tracked drift bound of every positive-weight
    /// class and restart the refresh interval.
    fn refresh_drift_bounds(&mut self, weights: &[u64; 4]) {
        for c in Class::ALL {
            if weights[c as usize] > 0 {
                self.state.refresh_bound(c);
            }
        }
        self.batches_since_refresh = 0;
    }

    /// The safe batch size for the current configuration, or `None` when
    /// a positive-weight class is not exchangeable or the safe size is too
    /// small to pay for itself.
    fn batch_size(&mut self) -> Option<u64> {
        let weights = self.state.weights();
        let w: u64 = weights.iter().sum();
        if w == 0 {
            return None;
        }
        let lazy_bounds = Class::ALL
            .into_iter()
            .any(|c| c.has_lazy_bound() && weights[c as usize] > 0);
        if lazy_bounds && self.batches_since_refresh >= MAX_REFRESH_INTERVAL {
            self.refresh_drift_bounds(&weights);
        }
        let (scale, threshold) = self.batch_params(weights)?;
        let b = w / (8 * scale);
        if b >= threshold {
            return Some(b);
        }
        // The lazily tracked bounds only grow between refreshes, so a
        // stale-high value could disable batching permanently. If a fresh
        // bound could possibly change the verdict, refresh once before
        // giving up (`batches_since_refresh > 0` caps this at one rescue
        // scan per run of batches).
        if lazy_bounds && self.batches_since_refresh > 0 && w / 8 >= threshold {
            self.refresh_drift_bounds(&weights);
            let (scale, threshold) = self.batch_params(weights)?;
            let b = w / (8 * scale);
            if b >= threshold {
                return Some(b);
            }
        }
        None
    }

    /// Decide the next quantum before an absolute clock cap: `Some(b)` =
    /// batch of `b`, `None` = one exact step. The safe batch size is
    /// clipped so the batch's expected clock drift stays well inside the
    /// cap (a scheduled fault must not be overrun by a whole batch). Near
    /// the cap the clipped size drops below [`MIN_BATCH`] and the engine
    /// exact-steps the final approach, where truncation at the cap is
    /// exact by memorylessness. A capped run's recheck-counter evolution
    /// can differ from an uncapped (`cap == u128::MAX`) run's — it is still
    /// deterministic per seed and thread-count invariant.
    #[inline]
    fn decide_batch(&mut self, cap: u128) -> Option<u64> {
        if !self.batching {
            return None;
        }
        if self.exact_steps_until_recheck == 0 {
            if let Some(b) = self.batch_size() {
                let b = self.clip_batch_to_cap(b, cap);
                if b > 0 {
                    return Some(b);
                }
            }
            self.exact_steps_until_recheck = EXACT_RECHECK_INTERVAL;
        }
        self.exact_steps_until_recheck -= 1;
        None
    }

    /// Clip a safe batch size `b` so the batch's expected clock advance
    /// (`b/p` draws) is at most a quarter of the room left before `cap` —
    /// the negative-binomial null tail then crosses the cap only with
    /// vanishing probability. Returns 0 when the clipped batch is too
    /// small to pay for itself (the caller falls back to exact stepping).
    fn clip_batch_to_cap(&self, b: u64, cap: u128) -> u64 {
        if cap == u128::MAX {
            return b;
        }
        let room = cap.saturating_sub(self.interactions);
        let w = self.state.productive_pairs();
        let p = w as f64 / self.ordered_pairs as f64;
        let b_room = (room as f64) * p / 4.0;
        if (b as f64) <= b_room {
            b
        } else if b_room >= MIN_BATCH as f64 {
            b_room as u64
        } else {
            0
        }
    }

    /// Collect the coalesced rewrite keys of one batch of `b` steps, with
    /// all weights frozen at the current configuration, into
    /// `self.key_scratch`. No counts are mutated.
    ///
    /// The main RNG contributes exactly the class split — chained
    /// binomials over the class weights in [`Class::ALL`] order, at every
    /// `b` — plus one `batch_seed`; all split randomness comes from
    /// streams derived from that seed, so the result is invariant under
    /// the thread count (see the module docs). Each class then plans its
    /// tasks in the same order, so the merged output order never depends
    /// on scheduling.
    fn collect_batch_keys(&mut self, b: u64, weights: [u64; 4]) {
        let mut shares: Vec<(Class, u64)> = Vec::with_capacity(Class::ALL.len());
        let items = Class::ALL.into_iter().map(|c| (c, weights[c as usize]));
        chain_binomials(&mut self.rng, b, weights.iter().sum(), items, &mut shares);

        let batch_seed = self.rng.next_u64();
        let mut coord = Xoshiro256::seed_from_u64(derive_seed(batch_seed, 0));
        let mut tasks = std::mem::take(&mut self.task_scratch);
        tasks.clear();
        for &(c, k) in &shares {
            self.state.plan(c, k, &mut coord, &mut tasks);
        }

        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        let mut split = std::mem::take(&mut self.split_scratch);
        execute_tasks(
            &mut self.state,
            &mut tasks,
            batch_seed,
            self.pool.as_mut(),
            b,
            &mut split,
            &mut keys,
        );
        self.task_scratch = tasks;
        self.split_scratch = split;
        self.key_scratch = keys;
    }

    /// Apply one coalesced group of `k` identical `before → after`
    /// rewrites, clipping `k` so every application finds its participants
    /// (the weights were frozen at batch start, so the tail of a group can
    /// outrun the supply of agents), and return the group actually
    /// applied. Counts change through
    /// [`ClassState::update_count_deferred`]: the caller flushes before the
    /// next weight read. With `reserve_byz` the clip
    /// additionally reserves the Byzantine occupancy of the drained states
    /// (stuck-at agents never move). `after == before` groups are pure
    /// no-ops that still count as applied chain events.
    ///
    /// A rewrite that moves only the responder of an equal pair,
    /// `a + a → a + b′` (A_G's only rule, the tree protocol's R1), takes
    /// a short path outside the Byzantine clip: each application needs two
    /// agents in `a` and leaves one there, so the group is clipped
    /// straight to `min(k, c_a − 1)` and applied as one
    /// [`ClassState::move_agents_deferred`] — what
    /// [`apply_deltas`](Self::apply_deltas) computes for it, without the
    /// delta dedupe and clip loop.
    fn apply_group(
        &mut self,
        before: (State, State),
        after: (State, State),
        k: u64,
        reserve_byz: bool,
    ) -> Option<BatchGroup> {
        if k == 0 {
            return None;
        }
        if after == before {
            return Some(BatchGroup {
                before,
                after,
                applied: k,
            });
        }
        let (a, b) = before;
        let applied = if a == b && after.0 == a && !reserve_byz {
            let k = k.min((self.state.counts[a as usize] as u64).saturating_sub(1));
            if k > 0 {
                self.state.move_agents_deferred(a, after.1, k);
            }
            k
        } else {
            self.apply_deltas(before, after, k, reserve_byz)
        };
        (applied > 0).then_some(BatchGroup {
            before,
            after,
            applied,
        })
    }

    /// The general form of [`apply_group`](Self::apply_group) for a
    /// rewrite `before → after ≠ before`: the per-application occupancy
    /// deltas over the ≤ 4 states involved, the clip, and one deferred
    /// count change per state. Returns how many applications fit.
    fn apply_deltas(
        &mut self,
        before: (State, State),
        after: (State, State),
        k: u64,
        reserve_byz: bool,
    ) -> u64 {
        let (a, b) = before;
        let (a2, b2) = after;
        // Per-application occupancy deltas over the (≤ 4) involved states.
        let mut deltas = [(0 as State, 0i64); 4];
        let mut len = 0usize;
        for (s, d) in [(a, -1i64), (b, -1), (a2, 1), (b2, 1)] {
            match deltas[..len].iter_mut().find(|e| e.0 == s) {
                Some(e) => e.1 += d,
                None => {
                    deltas[len] = (s, d);
                    len += 1;
                }
            }
        }
        // Clip: state a needs `2` agents per application when a == b,
        // else one agent in each of a and b; draining states bound the
        // group length.
        let mut kmax = k;
        for &(s, d) in &deltas[..len] {
            if s != a && s != b {
                continue;
            }
            let need: u64 = if a == b { 2 } else { 1 };
            let mut c = self.state.counts[s as usize] as u64;
            if reserve_byz {
                if let Some(byz) = &self.byz {
                    c = c.saturating_sub(byz.counts[s as usize] as u64);
                }
            }
            if c < need {
                kmax = 0;
                break;
            }
            if d < 0 {
                kmax = kmax.min((c - need) / ((-d) as u64) + 1);
            }
        }
        let k = kmax.min(k);
        if k > 0 {
            for &(s, d) in &deltas[..len] {
                if d != 0 {
                    self.state.update_count_deferred(s, d * k as i64);
                }
            }
        }
        k
    }

    /// Apply one coalesced key group under an active Byzantine overlay:
    /// the `k` draws are binomially thinned by the probability that each
    /// participant is a stuck-at agent (relative to the *current*
    /// occupancy of its state), then applied as up to four subgroups —
    /// both update, responder-only, initiator-only, neither. The vetoed
    /// subgroups still count as applied chain events (they advance the
    /// clock) but leave the counts untouched where a participant is
    /// stuck. Appends the applied subgroups to `groups` and returns the
    /// total applied.
    fn apply_group_byz(
        &mut self,
        before: (State, State),
        k: u64,
        groups: &mut Vec<BatchGroup>,
    ) -> u64 {
        let (a, b) = before;
        let ca = self.state.counts[a as usize] as u64;
        let cb = self.state.counts[b as usize] as u64;
        if ca == 0 || cb == 0 {
            // Drained by earlier groups of the same batch; drop the tail
            // exactly as the plain clipping path does.
            return 0;
        }
        let (ba, bb) = {
            let byz = self.byz.as_ref().expect("caller checked the overlay");
            (byz.counts[a as usize] as u64, byz.counts[b as usize] as u64)
        };
        let (a2, b2) = self.rewrite(before);
        if ba == 0 && bb == 0 {
            // No Byzantine mass in either participating state: identical
            // to the plain path, no thinning draws consumed.
            return match self.apply_group(before, (a2, b2), k, false) {
                Some(g) => {
                    groups.push(g);
                    g.applied
                }
                None => 0,
            };
        }
        // Initiator stuck with probability ba/ca, responder with bb/cb
        // (the without-replacement correction for a == b is dropped — the
        // batch already runs on frozen-weight approximations).
        let k_init = if ba >= ca {
            k
        } else if ba > 0 {
            self.rng.binomial(k, ba as f64 / ca as f64)
        } else {
            0
        };
        let p_resp = if bb >= cb { 1.0 } else { bb as f64 / cb as f64 };
        let draw_resp = |rng: &mut Xoshiro256, m: u64| -> u64 {
            if bb >= cb {
                m
            } else if bb > 0 && m > 0 {
                rng.binomial(m, p_resp)
            } else {
                0
            }
        };
        let k_both = draw_resp(&mut self.rng, k_init);
        let k_resp = draw_resp(&mut self.rng, k - k_init);
        let mut applied = 0u64;
        for (after, sub_k) in [
            ((a2, b2), k - k_init - k_resp),
            ((a, b2), k_init - k_both),
            ((a2, b), k_resp),
            ((a, b), k_both),
        ] {
            if let Some(g) = self.apply_group(before, after, sub_k, true) {
                applied += g.applied;
                groups.push(g);
            }
        }
        applied
    }

    /// Execute one batch of `b` statistically-exchangeable productive
    /// steps with frozen weights. Returns the number actually applied
    /// (≥ 1; per-group clipping can shave the tail).
    fn step_batch(&mut self, b: u64) -> u64 {
        let weights = self.state.weights();
        let w: u64 = weights.iter().sum();
        let p = w as f64 / self.ordered_pairs as f64;
        self.batches_since_refresh += 1;

        // Phase 1: sample every coalesced rewrite key with frozen weights.
        self.collect_batch_keys(b, weights);

        // Phase 2: apply the groups in collection order, clipping tails.
        let keys = std::mem::take(&mut self.key_scratch);
        let mut groups = std::mem::take(&mut self.group_scratch);
        groups.clear();
        let mut applied_total = 0u64;
        if self.byz.is_none() {
            for &(before, k) in &keys {
                if let Some(group) = self.apply_group(before, self.rewrite(before), k, false) {
                    applied_total += group.applied;
                    groups.push(group);
                }
            }
            debug_assert!(applied_total > 0, "batch applied nothing despite W > 0");
        } else {
            for &(before, k) in &keys {
                applied_total += self.apply_group_byz(before, k, &mut groups);
            }
            if applied_total == 0 {
                // Pathological corner: every group clipped away against
                // the Byzantine reservations. Account one vetoed chain
                // event so the clock always advances and the run loop
                // cannot spin.
                let before = keys.first().map_or((0, 0), |&(bf, _)| bf);
                groups.push(BatchGroup {
                    before,
                    after: before,
                    applied: 1,
                });
                applied_total = 1;
            }
        }
        // Apply reads counts only; rebuild the block-tree sums and
        // re-weight the sparse pairs it touched before anything (the next
        // batch size, sample or pool dispatch) reads a weight.
        self.state.flush_deferred();
        self.productive += applied_total;
        // Widen each operand before summing: with tiny p the null count
        // alone can exceed u64::MAX, so the addition must happen at u128.
        self.interactions = self
            .interactions
            .saturating_add(applied_total as u128)
            .saturating_add(self.rng.neg_binomial_wide(applied_total, p));

        self.key_scratch = keys;
        self.group_scratch = groups;
        applied_total
    }

    /// Consume the simulation and return the final occupancy counts.
    pub fn into_counts(self) -> Vec<u32> {
        self.state.counts
    }

    pub(crate) fn restore_parts(
        &mut self,
        counts: &[u32],
        interactions: u128,
        productive: u64,
        rng: Xoshiro256,
        ctl: Option<crate::engine::CountControl>,
    ) {
        let batching = self.batching;
        let threads = self.threads;
        let mut fresh = CountSimulation::from_counts(self.protocol, counts.to_vec(), 0)
            .expect("snapshot counts do not match this protocol");
        fresh.interactions = interactions;
        fresh.productive = productive;
        fresh.rng = rng;
        fresh.batching = batching;
        fresh.threads = threads;
        // The persistent pool survives restores — workers are stateless
        // between batches, so handing the existing pool to the restored
        // engine is free and avoids a re-spawn. The Byzantine overlay is
        // an engine-level property, not part of the captured
        // configuration: it survives too.
        fresh.pool = self.pool.take();
        fresh.byz = self.byz.take();
        // Batch decisions depend on this control state; restoring it makes
        // a same-engine restore replay the original trajectory exactly.
        // Cross-engine snapshots carry none — the canonical state computed
        // by `from_counts` is used instead.
        if let Some(ctl) = ctl {
            fresh.state.max_eq_bound = ctl.max_eq_count;
            fresh.state.sparse.max_partner_bound = ctl.max_sparse_partner;
            fresh.state.sparse.max_pair_scale_bound = ctl.max_sparse_pair_scale;
            fresh.batches_since_refresh = ctl.batches_since_refresh;
            fresh.exact_steps_until_recheck = ctl.exact_steps_until_recheck;
        }
        *self = fresh;
    }
}

impl<P: InteractionSchema + ?Sized> Engine for CountSimulation<'_, P> {
    /// `"jump"` in exact mode (batching off), `"count"` otherwise — the
    /// names [`EngineKind`](crate::engine::EngineKind) parses.
    fn engine_name(&self) -> &'static str {
        if self.batching {
            "count"
        } else {
            "jump"
        }
    }

    fn population_size(&self) -> usize {
        self.protocol.population_size()
    }

    fn counts(&self) -> &[u32] {
        &self.state.counts
    }

    /// Saturates at `u64::MAX`: beyond `n ≈ 2³¹` a full run exceeds it,
    /// so the internal clock is `u128`.
    fn interactions(&self) -> u64 {
        // lint:allow(A001): documented saturating u64 API boundary —
        // the exact clock is `interactions_wide()`.
        self.interactions.min(u64::MAX as u128) as u64
    }

    fn interactions_wide(&self) -> u128 {
        self.interactions
    }

    fn productive_interactions(&self) -> u64 {
        self.productive
    }

    /// Silent iff no ordered pair is productive.
    fn is_silent(&self) -> bool {
        self.productive_pairs() == 0
    }

    /// One batch far from silence, one exact productive interaction
    /// (plus its geometric null gap) otherwise.
    #[inline(always)]
    fn advance_to(&mut self, cap: u128, observer: &mut dyn CountObserver) -> CappedAdvance {
        let w = self.state.productive_pairs();
        if w == 0 {
            return CappedAdvance::Silent;
        }
        if self.interactions >= cap {
            return CappedAdvance::CapReached;
        }
        if let Some(b) = self.decide_batch(cap) {
            let applied = self.step_batch(b);
            for g in &self.group_scratch {
                observer.on_productive(
                    self.interactions,
                    g.before,
                    g.after,
                    g.applied,
                    &self.state.counts,
                );
            }
            return CappedAdvance::Applied(applied);
        }
        debug_assert!(w as u128 <= self.ordered_pairs);
        let p = w as f64 / self.ordered_pairs as f64;
        // Near silence at n ≥ 2³¹ the geometric mean n(n−1)/w exceeds
        // u64::MAX, so the draw and the +1 must both happen at u128 width.
        let next = self
            .interactions
            .saturating_add(self.rng.geometric_wide(p))
            .saturating_add(1);
        if next > cap {
            // Exact truncation: by memorylessness the time to the next
            // productive interaction, measured from the cap, is again
            // geometric under whatever weights then hold.
            self.interactions = cap;
            return CappedAdvance::CapReached;
        }
        self.interactions = next;
        self.productive += 1;
        let (before, after) = self.sample_and_apply();
        observer.on_productive(self.interactions, before, after, 1, &self.state.counts);
        CappedAdvance::Applied(1)
    }

    fn set_byzantine(&mut self, byz: &[u32]) {
        self.byz = ByzOverlay::build(byz, &self.state.counts);
    }

    fn num_rank_states(&self) -> usize {
        self.state.num_ranks
    }

    fn skip_nulls(&mut self, nulls: u128) {
        self.interactions = self.interactions.saturating_add(nulls);
    }

    fn inject_state_fault(&mut self, from: State, to: State) {
        assert!(
            (from as usize) < self.state.counts.len() && (to as usize) < self.state.counts.len(),
            "state out of range"
        );
        let reserved = self.byz.as_ref().map_or(0, |byz| byz.counts[from as usize]);
        assert!(
            self.state.counts[from as usize] > reserved,
            "state {from} has no non-Byzantine occupant"
        );
        if from == to {
            return;
        }
        self.state.move_agents(from, to, 1);
    }

    fn snapshot(&self) -> crate::engine::EngineSnapshot {
        crate::engine::EngineSnapshot {
            agents: None,
            counts: self.state.counts.clone(),
            interactions: self.interactions,
            productive: self.productive,
            rng: self.rng.clone(),
            count_ctl: Some(crate::engine::CountControl {
                max_eq_count: self.state.max_eq_bound,
                max_sparse_partner: self.state.sparse.max_partner_bound,
                max_sparse_pair_scale: self.state.sparse.max_pair_scale_bound,
                batches_since_refresh: self.batches_since_refresh,
                exact_steps_until_recheck: self.exact_steps_until_recheck,
            }),
        }
    }

    fn restore(&mut self, snapshot: &crate::engine::EngineSnapshot) {
        self.restore_parts(
            &snapshot.counts,
            snapshot.interactions,
            snapshot.productive,
            snapshot.rng.clone(),
            snapshot.count_ctl,
        );
    }
}

impl<P: InteractionSchema + ?Sized> std::fmt::Debug for CountSimulation<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountSimulation")
            .field("protocol", &self.protocol.name())
            .field("n", &self.protocol.population_size())
            .field("interactions", &self.interactions)
            .field("productive", &self.productive)
            .field("batching", &self.batching)
            .field("silent", &self.is_silent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::protocol::{ClassSpec, Protocol};
    use crate::sim::Simulation;

    struct Ag {
        n: usize,
    }
    impl Protocol for Ag {
        fn name(&self) -> &str {
            "A_G"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            if i == r {
                Some((i, (r + 1) % self.n as State))
            } else {
                None
            }
        }
    }
    impl InteractionSchema for Ag {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
    }

    fn exact(p: &Ag, config: Vec<State>, seed: u64) -> CountSimulation<'_, Ag> {
        CountSimulation::new(p, config, seed)
            .unwrap()
            .with_batching(false)
    }

    /// The exact chain and the naive chain are the same process: compare
    /// mean stabilisation times from a stacked start over many trials.
    #[test]
    fn exact_mode_mean_time_matches_naive_simulator() {
        let p = Ag { n: 12 };
        let trials = 300;
        let mean = |naive: bool| -> f64 {
            let total: u64 = (0..trials)
                .map(|t| {
                    if naive {
                        let mut s = Simulation::new(&p, vec![0; 12], 2000 + t).unwrap();
                        s.run_until_silent(u64::MAX).unwrap().interactions
                    } else {
                        let mut s = exact(&p, vec![0; 12], 1000 + t);
                        s.run_until_silent(u64::MAX).unwrap().interactions
                    }
                })
                .sum();
            total as f64 / trials as f64
        };
        let me = mean(false);
        let mn = mean(true);
        let rel = (me - mn).abs() / mn;
        assert!(
            rel < 0.15,
            "exact mean {me:.0} vs naive mean {mn:.0} (rel diff {rel:.3})"
        );
    }

    #[test]
    fn exact_mode_silent_start_reports_zero() {
        let p = Ag { n: 8 };
        let mut sim = exact(&p, (0..8).collect(), 5);
        let rep = sim.run_until_silent(10).unwrap();
        assert_eq!(rep.interactions, 0);
        assert_eq!(rep.productive_interactions, 0);
    }

    #[test]
    fn productive_pairs_counts_equal_rule_weight() {
        let p = Ag { n: 6 };
        // counts: 3 agents in state 0, 2 in state 1, 1 in state 2.
        let sim = CountSimulation::from_counts(&p, vec![3, 2, 1, 0, 0, 0], 1).unwrap();
        // 3·2 + 2·1 = 8 productive ordered pairs.
        assert_eq!(sim.productive_pairs(), 8);
    }

    /// A non-ranking sparse-pair protocol: rule (0,1) → (0,2) drains
    /// state 1; silence simply means no productive pair remains.
    struct Sparse;
    impl Protocol for Sparse {
        fn name(&self) -> &str {
            "sparse"
        }
        fn population_size(&self) -> usize {
            4
        }
        fn num_states(&self) -> usize {
            3
        }
        fn num_rank_states(&self) -> usize {
            3
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            (i == 0 && r == 1).then_some((0, 2))
        }
    }
    impl InteractionSchema for Sparse {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::pair(0, 1)]
        }
    }

    #[test]
    fn exact_mode_runs_sparse_pair_protocol_to_silence() {
        crate::protocol::validate_interaction_schema(&Sparse).unwrap();
        let mut sim = CountSimulation::from_counts(&Sparse, vec![2, 2, 0], 7)
            .unwrap()
            .with_batching(false);
        assert_eq!(sim.productive_pairs(), 4); // 2·2 ordered (0,1) pairs
        let rep = sim.run_until_silent(u64::MAX).unwrap();
        assert_eq!(rep.productive_interactions, 2);
        assert_eq!(sim.counts(), &[2, 0, 2]);
    }

    #[test]
    fn batched_run_reaches_perfect_ranking() {
        let p = Ag { n: 4096 };
        let mut sim = CountSimulation::new(&p, vec![0; 4096], 5).unwrap();
        let rep = sim.run_until_silent(u64::MAX).unwrap();
        assert!(sim.counts().iter().all(|&c| c == 1));
        assert!(rep.productive_interactions >= 4095);
        assert!(rep.interactions >= rep.productive_interactions);
    }

    #[test]
    fn wide_clock_survives_snapshot_roundtrip() {
        let p = Ag { n: 8 };
        let mut sim = CountSimulation::new(&p, vec![0; 8], 9).unwrap();
        sim.advance();
        let mut snap = Engine::snapshot(&sim);
        let wide = u64::MAX as u128 + 12_345;
        snap.interactions = wide;
        Engine::restore(&mut sim, &snap);
        assert_eq!(sim.interactions_wide(), wide);
        assert_eq!(Engine::interactions(&sim), u64::MAX);
        // Snapshot and advance keep the full-width clock exact.
        let snap2 = Engine::snapshot(&sim);
        assert_eq!(snap2.interactions_wide(), wide);
        assert_eq!(snap2.interactions(), u64::MAX);
        sim.advance();
        assert!(sim.interactions_wide() > wide);
    }

    /// `Engine::report()` — and with it every run loop's report — must
    /// read the full-width clock, not the saturating `u64` one.
    #[test]
    fn report_parallel_time_uses_the_wide_clock() {
        let p = Ag { n: 8 };
        let mut sim = CountSimulation::new(&p, (0..8).collect(), 1).unwrap();
        let mut snap = sim.snapshot();
        snap.interactions = 1 << 70;
        sim.restore(&snap);
        let report = sim.report();
        assert_eq!(report.interactions_wide, 1 << 70);
        assert_eq!(report.parallel_time, (1u128 << 70) as f64 / 8.0);
        assert_eq!(sim.run_until_silent(u64::MAX).unwrap(), report);
    }

    #[test]
    fn batching_engages_far_from_silence() {
        let p = Ag { n: 4096 };
        let mut sim = CountSimulation::new(&p, vec![0; 4096], 6).unwrap();
        let applied = sim.advance().unwrap();
        assert!(
            applied >= MIN_BATCH,
            "stacked start must batch, applied {applied}"
        );
        // Batched and exact stepping agree on conservation throughout.
        while sim.advance().is_some() {
            assert_eq!(sim.counts().iter().map(|&c| c as u64).sum::<u64>(), 4096);
        }
        assert!(sim.is_silent());
    }

    #[test]
    fn batched_mean_time_matches_exact_chain() {
        // The batched chain is an approximation of the exact chain far
        // from silence; its stabilisation-time mean must track the exact
        // simulator within a few percent.
        let p = Ag { n: 256 };
        let trials = 60u64;
        let mean = |batching: bool| -> f64 {
            (0..trials)
                .map(|t| {
                    let mut s = CountSimulation::new(&p, vec![0; 256], 9000 + t)
                        .unwrap()
                        .with_batching(batching);
                    s.run_until_silent(u64::MAX).unwrap().interactions as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        let batched = mean(true);
        let exact = mean(false);
        let rel = (batched - exact).abs() / exact;
        assert!(
            rel < 0.1,
            "batched mean {batched:.0} vs exact mean {exact:.0} ({rel:.3})"
        );
    }

    #[test]
    fn from_counts_validates_total() {
        let p = Ag { n: 4 };
        assert!(CountSimulation::from_counts(&p, vec![1, 1, 1, 0], 1).is_err());
        assert!(CountSimulation::from_counts(&p, vec![4, 0, 0, 0], 1).is_ok());
        assert!(CountSimulation::from_counts(&p, vec![4, 0, 0], 1).is_err());
    }

    #[test]
    fn timeout_semantics() {
        let p = Ag { n: 64 };
        let mut sim = CountSimulation::new(&p, vec![0; 64], 3).unwrap();
        let err = sim.run_until_silent(2).unwrap_err();
        assert!(err.interactions >= 2);
    }

    #[test]
    fn fault_injection_reenables_stepping() {
        let p = Ag { n: 32 };
        let mut sim = CountSimulation::new(&p, (0..32).collect(), 11).unwrap();
        assert!(sim.is_silent());
        sim.inject_state_fault(3, 9);
        assert!(!sim.is_silent());
        sim.run_until_silent(u64::MAX).unwrap();
        assert!(sim.counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn snapshot_restore_replays_exactly_while_batching() {
        // n large enough that batch mode is active at snapshot time; the
        // snapshot must carry the batch-scheduling state so the restored
        // run replays the original continuation draw-for-draw.
        let p = Ag { n: 4096 };
        let mut sim = CountSimulation::new(&p, vec![0; 4096], 77).unwrap();
        for _ in 0..5 {
            sim.advance();
        }
        let snap = Engine::snapshot(&sim);
        let cont: Vec<(u64, u64)> = (0..40)
            .map(|_| {
                sim.advance();
                (sim.interactions(), sim.productive_interactions())
            })
            .collect();
        let counts_a = sim.counts().to_vec();
        Engine::restore(&mut sim, &snap);
        let replay: Vec<(u64, u64)> = (0..40)
            .map(|_| {
                sim.advance();
                (sim.interactions(), sim.productive_interactions())
            })
            .collect();
        assert_eq!(cont, replay, "restored run must replay the original");
        assert_eq!(counts_a, sim.counts());
    }

    #[test]
    fn stale_max_count_bound_cannot_disable_batching_permanently() {
        // Start stacked so max_eq_bound is learned high, let the mass
        // disperse, then verify batches keep firing once the true maximum
        // has dropped (the rescue refresh in batch_size).
        let p = Ag { n: 8192 };
        let mut sim = CountSimulation::new(&p, vec![0; 8192], 3).unwrap();
        let mut batched_quanta = 0u64;
        let mut total_quanta = 0u64;
        while let Some(applied) = sim.advance() {
            total_quanta += 1;
            if applied > 1 {
                batched_quanta += 1;
            }
            if total_quanta > 50_000_000 {
                break;
            }
        }
        assert!(sim.is_silent());
        // Far from silence the overwhelming majority of productive work
        // must happen in batches; without the rescue the stale stacked
        // bound (8192) would throttle b below MIN_BATCH long before the
        // weight support actually thins out.
        assert!(
            batched_quanta > 100,
            "only {batched_quanta} of {total_quanta} quanta were batches"
        );
    }

    #[test]
    fn deterministic_given_seed_with_batching() {
        let p = Ag { n: 512 };
        let run = |seed| {
            let mut s = CountSimulation::new(&p, vec![7; 512], seed).unwrap();
            s.run_until_silent(u64::MAX).unwrap().interactions
        };
        assert_eq!(run(31), run(31));
    }

    /// The tentpole invariant: batched trajectories are bit-identical for
    /// a fixed seed regardless of the thread count. The start spreads the
    /// population over 16 states so the per-batch draw count clears both
    /// the pool-dispatch threshold and the task-partition granularity —
    /// the multi-thread runs genuinely execute tasks on pool workers.
    #[test]
    fn batched_trajectory_is_identical_across_thread_counts() {
        let n = 1 << 17;
        let p = Ag { n };
        let mut counts = vec![0u32; n];
        for s in 0..16 {
            counts[s * (n / 16)] = (n / 16) as u32;
        }
        let run = |threads: usize| {
            let mut s = CountSimulation::from_counts(&p, counts.clone(), 23)
                .unwrap()
                .with_threads(threads);
            let first = s.advance().unwrap();
            assert!(
                first >= POOL_MIN_DRAWS_PER_WORKER * threads as u64,
                "first batch must clear the pool threshold (applied {first})"
            );
            for _ in 0..40 {
                s.advance();
            }
            (
                s.interactions(),
                s.productive_interactions(),
                s.into_counts(),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "1-thread vs 4-thread trajectories differ");
        assert_eq!(serial, run(3), "1-thread vs 3-thread trajectories differ");
    }

    /// Pool regression: a **long** run (hundreds of batches re-using the
    /// same parked workers, all the way into the exact-mode tail and
    /// silence) is bit-identical under the persistent pool and under
    /// serial execution. The task plan, per-task RNG streams, and merge
    /// order are unchanged from the per-batch scoped-spawn implementation,
    /// so this also pins the trajectory to the previous revision's
    /// behaviour for these seeds.
    #[test]
    fn persistent_pool_long_run_is_bit_identical_to_serial() {
        let n = 1 << 15;
        let p = Ag { n };
        for seed in [7u64, 23] {
            let run = |threads: usize| {
                let mut s = CountSimulation::new(&p, vec![0; n], seed)
                    .unwrap()
                    .with_threads(threads);
                let rep = s.run_until_silent(u64::MAX).unwrap();
                (
                    rep.interactions,
                    rep.productive_interactions,
                    s.into_counts(),
                )
            };
            let serial = run(1);
            let pooled = run(3);
            assert_eq!(serial, pooled, "seed {seed}: pool run diverged");
        }
    }

    /// The pool must survive a snapshot restore (restore rebuilds the
    /// engine from counts) and keep producing the serial trajectory.
    #[test]
    fn pool_survives_snapshot_restore() {
        let n = 1 << 15;
        let p = Ag { n };
        let mut s = CountSimulation::new(&p, vec![0; n], 11)
            .unwrap()
            .with_threads(3);
        for _ in 0..5 {
            s.advance();
        }
        let snap = Engine::snapshot(&s);
        let cont: Vec<u64> = (0..30)
            .map(|_| {
                s.advance();
                s.productive_interactions()
            })
            .collect();
        Engine::restore(&mut s, &snap);
        assert_eq!(s.threads(), 3, "thread budget lost across restore");
        let replay: Vec<u64> = (0..30)
            .map(|_| {
                s.advance();
                s.productive_interactions()
            })
            .collect();
        assert_eq!(cont, replay, "restored pooled run must replay the original");
    }

    /// A multi-class protocol (equal-rank + extra–extra + symmetric cross,
    /// tree-protocol shaped): the generalised batch mode must engage on
    /// the extra classes and still conserve agents and reach silence.
    struct Multi {
        n: usize,
        x: usize,
    }
    impl Multi {
        fn extra(&self, i: usize) -> State {
            (self.n + i) as State
        }
    }
    impl Protocol for Multi {
        fn name(&self) -> &str {
            "multi"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n + self.x
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            let nr = self.n as State;
            match (i < nr, r < nr) {
                (true, true) => (i == r).then(|| {
                    if (r as usize) + 1 == self.n {
                        (self.extra(0), self.extra(0))
                    } else {
                        (i, r + 1)
                    }
                }),
                // Buffer epidemic: both agents climb to min+1, or re-enter
                // the root from the top buffer state.
                (false, false) => {
                    let low = i.min(r) as usize - self.n;
                    if low + 1 >= self.x {
                        Some((0, 0))
                    } else {
                        let up = self.extra(low + 1);
                        Some((up, up))
                    }
                }
                // Cross: the buffered agent re-enters at the root.
                (true, false) => Some((i, 0)),
                (false, true) => Some((0, r)),
            }
        }
    }
    impl InteractionSchema for Multi {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![
                ClassSpec::equal_rank(),
                ClassSpec::extra_extra(),
                ClassSpec::rank_extra(crate::protocol::CrossDirection::Both),
            ]
        }
    }

    /// The one-agent path of `apply_group` is the general delta path
    /// for `a + a → a + b′`. Two engines on the same counts apply the
    /// same groups, one through `apply_group`, the other through
    /// `apply_deltas`; after each group (and a flush) they must agree on
    /// the returned group, the counts, both block trees, the live words
    /// and `max_eq_bound`. The groups drain states holding 0 to 3 agents
    /// with `k` past `c_a − 1`, and move agents within a block, across a
    /// block edge (`63 → 64`, `127 → 128`) and into an extra state.
    #[test]
    fn one_agent_moves_match_the_delta_path() {
        let p = Multi { n: 200, x: 3 };
        let states = p.num_states();
        let mut rng = Xoshiro256::seed_from_u64(77);
        let mut clipped = [false; 4];
        for round in 0..40u64 {
            let mut counts = vec![0u32; states];
            for _ in 0..p.n {
                counts[rng.below(states as u64) as usize] += 1;
            }
            let mut fast = CountSimulation::from_counts(&p, counts.clone(), round).unwrap();
            let mut general = CountSimulation::from_counts(&p, counts, round).unwrap();
            for g in 0..60u64 {
                let a = match g % 4 {
                    0 => [63, 127, 191][rng.below(3) as usize],
                    _ => rng.below(p.n as u64) as State,
                };
                let to = match g % 3 {
                    0 => a + 1,
                    1 => p.extra(rng.below(p.x as u64) as usize),
                    _ => rng.below(states as u64) as State,
                };
                if to == a {
                    continue;
                }
                let c_a = fast.state.counts[a as usize] as u64;
                let k = [1, c_a.saturating_sub(1), c_a, c_a + 1, c_a + 5][rng.below(5) as usize];
                let (before, after) = ((a, a), (a, to));
                let got = fast.apply_group(before, after, k, false);
                let applied = if k == 0 {
                    0
                } else {
                    general.apply_deltas(before, after, k, false)
                };
                let want = (applied > 0).then_some(BatchGroup {
                    before,
                    after,
                    applied,
                });
                assert_eq!(got, want, "round {round} group {g}: c_a {c_a}, k {k}");
                assert!(applied < c_a.max(1), "clipped to c_a − 1");
                if c_a < 4 && k + 1 > c_a {
                    clipped[c_a as usize] = true;
                }
                fast.state.flush_deferred();
                general.state.flush_deferred();
                let (x, y) = (&fast.state, &general.state);
                assert_eq!(x.counts, y.counts);
                assert_eq!(x.trees(), y.trees());
                assert_eq!(x.max_eq_bound, y.max_eq_bound);
            }
        }
        assert_eq!(clipped, [true; 4], "a clip at every c_a ≤ 3");
    }

    #[test]
    fn multi_class_schema_validates() {
        crate::protocol::validate_interaction_schema(&Multi { n: 9, x: 3 }).unwrap();
    }

    #[test]
    fn multi_class_batches_extra_classes_and_conserves() {
        let n = 6000;
        let p = Multi { n, x: 4 };
        // Adversarial start: everyone buffered at the bottom extra state —
        // all productive weight is extra–extra, none equal-rank.
        let start = vec![p.extra(0); n];
        let mut sim = CountSimulation::new(&p, start, 21).unwrap();
        let first = sim.advance().unwrap();
        assert!(
            first >= MIN_BATCH,
            "extra–extra start must batch, applied {first}"
        );
        while sim.advance().is_some() {
            assert_eq!(
                sim.counts().iter().map(|&c| c as u64).sum::<u64>(),
                n as u64
            );
        }
        assert!(sim.is_silent());
        assert!(sim.counts()[..n].iter().all(|&c| c == 1));
    }

    #[test]
    fn multi_class_batched_mean_matches_exact_chain() {
        let n = 600;
        let p = Multi { n, x: 4 };
        let trials = 40u64;
        let mean = |batching: bool| -> f64 {
            (0..trials)
                .map(|t| {
                    let mut s = CountSimulation::new(&p, vec![p.extra(0); n], 7000 + t)
                        .unwrap()
                        .with_batching(batching);
                    s.run_until_silent(u64::MAX).unwrap().interactions as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        let batched = mean(true);
        let exact = mean(false);
        let rel = (batched - exact).abs() / exact;
        assert!(
            rel < 0.1,
            "batched mean {batched:.0} vs exact mean {exact:.0} ({rel:.3})"
        );
    }

    /// Declaring a class non-exchangeable must force exact stepping
    /// whenever it has weight, and the batching engine must then walk the
    /// exact-mode trajectory per seed.
    struct Frozen {
        n: usize,
    }
    impl Protocol for Frozen {
        fn name(&self) -> &str {
            "frozen"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            (i == r).then(|| (i, (r + 1) % self.n as State))
        }
    }
    impl InteractionSchema for Frozen {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank().non_exchangeable()]
        }
    }

    #[test]
    fn non_exchangeable_class_forces_exact_stepping() {
        let p = Frozen { n: 4096 };
        let mut count = CountSimulation::new(&p, vec![0; 4096], 19).unwrap();
        let mut exact = CountSimulation::new(&p, vec![0; 4096], 19)
            .unwrap()
            .with_batching(false);
        for _ in 0..5_000 {
            assert_eq!(count.advance(), Some(1));
            exact.advance();
        }
        assert_eq!(count.interactions(), exact.interactions());
        assert_eq!(count.counts(), exact.counts());
    }

    /// Sparse-only annihilation: `(1,2) → (0,0)` and `(2,1) → (0,0)`.
    /// Every draw drains both non-zero states, so the batch cap is fully
    /// exercised; from an even split both sides hit zero together
    /// (`c_1 − c_2` is invariant) and the run ends silent.
    struct Annihilate {
        n: usize,
    }
    impl Protocol for Annihilate {
        fn name(&self) -> &str {
            "annihilate"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            3
        }
        fn num_rank_states(&self) -> usize {
            3
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            matches!((i, r), (1, 2) | (2, 1)).then_some((0, 0))
        }
    }
    impl InteractionSchema for Annihilate {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::pair(1, 2), ClassSpec::pair(2, 1)]
        }
    }

    fn annihilate_counts(n: usize) -> Vec<u32> {
        vec![0, (n / 2) as u32, (n / 2) as u32]
    }

    #[test]
    fn sparse_batching_engages_with_per_pair_caps() {
        crate::protocol::validate_interaction_schema(&Annihilate { n: 8 }).unwrap();
        let n = 4096;
        let p = Annihilate { n };
        let mut sim = CountSimulation::from_counts(&p, annihilate_counts(n), 21).unwrap();
        let first = sim.advance().unwrap();
        // W = 2c², pair scale = c, partner floor = 2c/2 = c ⇒ b = c/4.
        // The old global 2·partner-sum rein (scale 4c) allowed only c/16;
        // anything clearly above that proves the per-pair cap is in
        // charge.
        let c = (n / 2) as u64;
        assert!(
            first >= c / 8 && first <= c / 4 + 1,
            "first batch {first} outside the per-pair-cap regime (c = {c})"
        );
        while sim.advance().is_some() {
            assert_eq!(
                sim.counts().iter().map(|&c| c as u64).sum::<u64>(),
                n as u64
            );
        }
        assert!(sim.is_silent());
        assert_eq!(sim.counts(), &[n as u32, 0, 0]);
    }

    #[test]
    fn sparse_batched_mean_matches_exact_chain() {
        let n = 512;
        let p = Annihilate { n };
        let trials = 60u64;
        let mean = |batching: bool| -> f64 {
            (0..trials)
                .map(|t| {
                    let mut s = CountSimulation::from_counts(&p, annihilate_counts(n), 4_000 + t)
                        .unwrap()
                        .with_batching(batching);
                    s.run_until_silent(u64::MAX).unwrap().interactions as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        let batched = mean(true);
        let exact = mean(false);
        let rel = (batched - exact).abs() / exact;
        assert!(
            rel < 0.1,
            "batched mean {batched:.0} vs exact mean {exact:.0} ({rel:.3})"
        );
    }

    #[test]
    fn stale_sparse_bounds_cannot_disable_batching_permanently() {
        // The sparse drift bounds are learned high at the well-mixed start
        // and only shrink on refresh; as annihilation thins both sides,
        // the periodic and rescue refreshes must keep batches firing until
        // the amortisation threshold genuinely wins (c/4 < MIN_BATCH).
        let n = 1 << 14;
        let p = Annihilate { n };
        let mut sim = CountSimulation::from_counts(&p, annihilate_counts(n), 3).unwrap();
        let mut total_quanta = 0u64;
        let mut last_batched_c = u64::MAX;
        while let Some(applied) = sim.advance() {
            total_quanta += 1;
            if applied > 1 {
                // Smallest population at which a batch still fired (counts
                // are post-batch, which only strengthens the assertion).
                let c = sim.counts()[1].min(sim.counts()[2]) as u64;
                last_batched_c = last_batched_c.min(c);
            }
            assert!(total_quanta < 100_000, "runaway annihilation run");
        }
        assert!(sim.is_silent());
        // Without the sparse rescue refresh the stale initial scale
        // (c₀ = 8192) would stop batching near c ≈ 1024; with it, batches
        // must continue until the threshold regime (c/4 < 64 ⇒ c < 256).
        assert!(
            last_batched_c < 512,
            "batches stopped early: smallest post-batch population {last_batched_c}"
        );
        // And the whole run must be batch-dominated: ~13 geometric-decay
        // batches plus < 2·256 exact tail steps, far below the ~8k exact
        // steps a stalled run would need.
        assert!(
            total_quanta < 2_000,
            "sparse batching stalled: {total_quanta} quanta to silence"
        );
    }

    /// Initiator-copies-itself-onto-responder consensus over `s` states,
    /// declared as all `s(s−1)` ordered sparse pairs: many initiator
    /// groups with positive weight, so the per-group sparse split tasks
    /// genuinely fan out across pool workers.
    struct Consensus {
        s: usize,
        n: usize,
    }
    impl Protocol for Consensus {
        fn name(&self) -> &str {
            "consensus"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.s
        }
        fn num_rank_states(&self) -> usize {
            self.s
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            (i != r).then_some((i, i))
        }
    }
    impl InteractionSchema for Consensus {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            let s = self.s as State;
            (0..s)
                .flat_map(|a| {
                    (0..s)
                        .filter(move |&b| b != a)
                        .map(move |b| ClassSpec::pair(a, b))
                })
                .collect()
        }
    }

    /// 1-vs-4-thread bit-identity straight through the per-group sparse
    /// split tasks: 16 occupied initiator groups, batches big enough that
    /// the 4-thread run demonstrably dispatches to pool workers.
    #[test]
    fn sparse_group_tasks_are_bit_identical_across_thread_counts() {
        let s = 16;
        let n = 1 << 16;
        crate::protocol::validate_interaction_schema(&Consensus { s, n: 64 }).unwrap();
        let p = Consensus { s, n };
        let counts = vec![(n / s) as u32; s];
        let run = |threads: usize| {
            let mut sim = CountSimulation::from_counts(&p, counts.clone(), 29)
                .unwrap()
                .with_threads(threads);
            let first = sim.advance().unwrap();
            assert!(
                first >= POOL_MIN_DRAWS_PER_WORKER * threads as u64,
                "first batch must clear the pool threshold (applied {first})"
            );
            for _ in 0..40 {
                sim.advance();
            }
            (
                sim.interactions(),
                sim.productive_interactions(),
                sim.into_counts(),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "1 vs 4 threads through sparse group tasks");
    }

    /// Snapshot/restore round-trips the sparse drift bounds: batch-size
    /// decisions depend on them, so a restored run only replays the
    /// original continuation if `CountControl` carries them.
    #[test]
    fn sparse_snapshot_restore_replays_exactly_while_batching() {
        let n = 4096;
        let p = Annihilate { n };
        let mut sim = CountSimulation::from_counts(&p, annihilate_counts(n), 99).unwrap();
        for _ in 0..3 {
            sim.advance();
        }
        let snap = Engine::snapshot(&sim);
        let cont: Vec<(u64, u64)> = (0..25)
            .map(|_| {
                sim.advance();
                (sim.interactions(), sim.productive_interactions())
            })
            .collect();
        let counts_a = sim.counts().to_vec();
        Engine::restore(&mut sim, &snap);
        let replay: Vec<(u64, u64)> = (0..25)
            .map(|_| {
                sim.advance();
                (sim.interactions(), sim.productive_interactions())
            })
            .collect();
        assert_eq!(cont, replay, "restored sparse run must replay the original");
        assert_eq!(counts_a, sim.counts());
    }
}

//! Job specs, the stable content key, and the result codec.
//!
//! Both codecs are versioned line-oriented text (`key value` pairs) so
//! spool files are inspectable with a pager and diffable in experiments.
//! Floating-point fields round-trip exactly: encoding uses Rust's
//! shortest-roundtrip `Display`, and the result codec additionally carries
//! bit patterns so a decoded [`JobResult`] is *bit-identical* to the one
//! encoded — the property the kill/resume acceptance test asserts.

use crate::ServiceError;
use ssr_core::{ranking_protocol, MakeProtocol};
use ssr_engine::wire::SnapshotShape;
use ssr_engine::{EngineKind, FaultPlan, Init, InteractionSchema, Scenario};
use std::fmt;
use std::sync::Mutex;

/// Codec version tag of the job-spec text format.
pub const JOB_SPEC_VERSION: &str = "ssr-job v1";
/// Codec version tag of the result text format.
pub const JOB_RESULT_VERSION: &str = "ssr-result v1";

/// Initial-configuration family of a job — the closed (serialisable)
/// subset of [`ssr_engine::Init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobInit {
    /// Everyone stacked in state 0.
    Stacked,
    /// Everyone in the given state.
    AllIn(u32),
    /// Uniformly random over the full state space.
    Uniform,
    /// The silent perfect ranking.
    Perfect,
    /// Ranking distance exactly `k`.
    KDistant(usize),
}

impl JobInit {
    fn code(self) -> u64 {
        match self {
            JobInit::Stacked => 1,
            JobInit::AllIn(s) => 2 | (s as u64) << 8,
            JobInit::Uniform => 3,
            JobInit::Perfect => 4,
            JobInit::KDistant(k) => 5 | (k as u64) << 8,
        }
    }

    /// The engine-side init family this job init denotes.
    pub fn to_init(self) -> Init<'static> {
        match self {
            JobInit::Stacked => Init::Stacked,
            JobInit::AllIn(s) => Init::AllIn(s),
            JobInit::Uniform => Init::Uniform,
            JobInit::Perfect => Init::Perfect,
            JobInit::KDistant(k) => Init::KDistant(k),
        }
    }
}

impl fmt::Display for JobInit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobInit::Stacked => write!(f, "stacked"),
            JobInit::AllIn(s) => write!(f, "all-in {s}"),
            JobInit::Uniform => write!(f, "uniform"),
            JobInit::Perfect => write!(f, "perfect"),
            JobInit::KDistant(k) => write!(f, "k-distant {k}"),
        }
    }
}

/// One scenario job: everything needed to reproduce a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Protocol name: `generic`, `ring`, `line`, or `tree` (`ag` is
    /// accepted on input and canonicalised to `generic`).
    pub protocol: String,
    /// Population size.
    pub n: usize,
    /// Initial-configuration family.
    pub init: JobInit,
    /// Engine selection; `Auto` is canonicalised per `n` in the key.
    pub engine: EngineKind,
    /// Base seed (configuration, simulation, and fault streams derive
    /// from it exactly as in [`ssr_engine::Scenario`]).
    pub seed: u64,
    /// Interaction budget (`u64::MAX` = unbounded).
    pub max_interactions: u64,
    /// Requested core budget; 0 = daemon default. **Not** part of the
    /// content key — trajectories are bit-identical at any thread count.
    pub threads: usize,
    /// One-shot fault bursts `(clock time, faults)`.
    pub bursts: Vec<(u128, u32)>,
    /// Background corruption probability per interaction.
    pub fault_rate: f64,
    /// Replacement-churn probability per interaction.
    pub churn: f64,
    /// Persistent Byzantine (stuck-at) agents.
    pub byzantine: u32,
}

impl JobSpec {
    /// A fault-free job with the runner defaults: auto engine, uniform
    /// start, unbounded budget, daemon-default threads.
    pub fn new(protocol: &str, n: usize, seed: u64) -> Self {
        JobSpec {
            protocol: ranking_protocol(protocol)
                .map_or(protocol, |(name, _)| name)
                .to_string(),
            n,
            init: JobInit::Uniform,
            engine: EngineKind::Auto,
            seed,
            max_interactions: u64::MAX,
            threads: 0,
            bursts: Vec::new(),
            fault_rate: 0.0,
            churn: 0.0,
            byzantine: 0,
        }
    }

    /// Build the job's protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Spec`] for unknown protocol names.
    pub fn make_protocol(&self) -> Result<Box<dyn InteractionSchema + Sync>, ServiceError> {
        Ok((self.registered()?.1)(self.n))
    }

    /// The canonical protocol name (`ag` → `generic`).
    fn canonical_protocol(&self) -> Result<&'static str, ServiceError> {
        Ok(self.registered()?.0)
    }

    /// The job's protocol: its canonical name and constructor (see
    /// [`ranking_protocol`]).
    fn registered(&self) -> Result<(&'static str, MakeProtocol), ServiceError> {
        ranking_protocol(&self.protocol).ok_or_else(|| {
            ServiceError::Spec(format!(
                "unknown protocol '{}' (expected generic|ring|line|tree)",
                self.protocol
            ))
        })
    }

    /// The [`Scenario`] this job runs on `protocol` (the job's own, from
    /// [`make_protocol`](Self::make_protocol)) with a core budget of
    /// `threads`: its engine, start, seed, budget and fault plan. Trial 0
    /// is the job's run.
    pub fn scenario<'p>(
        &self,
        protocol: &'p (dyn InteractionSchema + Sync),
        threads: usize,
    ) -> Scenario<'p, dyn InteractionSchema + Sync + 'p> {
        let scenario = Scenario::new(protocol)
            .engine(self.engine)
            .init(self.init.to_init())
            .base_seed(self.seed)
            .max_interactions(self.max_interactions)
            .threads(threads);
        match self.fault_plan() {
            Some(plan) => scenario.fault_plan(plan),
            None => scenario,
        }
    }

    /// The [`SnapshotShape`] of the job's protocol — the identity its
    /// checkpoints are stamped and validated with. Equal to
    /// `SnapshotShape::of(self.make_protocol()?)`, but the schema hash
    /// behind it is derived once per `(protocol, n)` per process and
    /// memoised (at most 64 pairs are kept).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Spec`] for unknown protocol names.
    pub fn shape(&self) -> Result<SnapshotShape, ServiceError> {
        SHAPES.shape(self)
    }

    /// Assemble the job's adversary flags into a [`FaultPlan`]; `None`
    /// for fault-free jobs.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        let mut plan = FaultPlan::new();
        let mut any = false;
        for &(t, f) in &self.bursts {
            plan = plan.burst_at(t, f);
            any = true;
        }
        if self.fault_rate > 0.0 {
            plan = plan.rate(self.fault_rate);
            any = true;
        }
        if self.churn > 0.0 {
            plan = plan.churn(self.churn);
            any = true;
        }
        if self.byzantine > 0 {
            plan = plan.byzantine(self.byzantine);
            any = true;
        }
        any.then_some(plan)
    }

    /// Check the spec is well-formed and executable (protocol known, fault
    /// probabilities in range, persistent fault processes bounded by a
    /// finite budget).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Spec`] describing the first violation.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.canonical_protocol()?;
        if self.n == 0 {
            return Err(ServiceError::Spec("population must be positive".into()));
        }
        for rate in [self.fault_rate, self.churn] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(ServiceError::Spec(format!(
                    "fault/churn rates must be probabilities, got {rate}"
                )));
            }
        }
        if let JobInit::KDistant(k) = self.init {
            if k >= self.n {
                return Err(ServiceError::Spec(format!(
                    "k-distant start needs k < n (k = {k}, n = {})",
                    self.n
                )));
            }
        }
        if let Some(plan) = self.fault_plan() {
            if plan.may_never_silence() && self.max_interactions == u64::MAX {
                return Err(ServiceError::Spec(
                    "persistent fault process (rate/churn/byzantine) needs a finite budget".into(),
                ));
            }
        }
        Ok(())
    }

    /// The stable 128-bit content key of this job.
    ///
    /// Covers the protocol's
    /// [`schema_hash`](InteractionSchema::schema_hash) (so a cached result
    /// is never served across rule changes; memoised, see
    /// [`shape`](Self::shape)), the canonical protocol name,
    /// `n`, init, the engine kind **with `Auto` resolved against `n`** (an
    /// `auto` job and an explicit `count` job at `n ≥ 4096` are the same
    /// run), seed, budget, and the full fault plan. Excludes `threads`:
    /// trajectories are bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Spec`] when the protocol is unknown.
    pub fn key(&self) -> Result<JobKey, ServiceError> {
        let schema_hash = self.shape()?.schema_hash;
        let canonical = self.canonical_protocol()?;
        let mut lo = Fnv::new(0xCBF2_9CE4_8422_2325);
        let mut hi = Fnv::new(0x6C62_272E_07BB_0142); // independent basis
        for h in [&mut lo, &mut hi] {
            h.word(1); // key-derivation version
            h.word(schema_hash);
            h.bytes(canonical.as_bytes());
            h.word(self.n as u64);
            h.word(self.init.code());
            h.word(self.engine.resolve(self.n) as u64);
            h.word(self.seed);
            h.word(self.max_interactions);
            h.word(self.bursts.len() as u64);
            for &(t, f) in &self.bursts {
                // Audited: a u128 burst time hashes as its two u64
                // halves — the low-word narrow is the point.
                #[allow(clippy::cast_possible_truncation)]
                h.word(t as u64);
                h.word((t >> 64) as u64);
                h.word(f as u64);
            }
            // `+ 0.0` turns a rate of -0 into 0: no rate, as `encode`
            // and `fault_plan` read it.
            h.word((self.fault_rate + 0.0).to_bits());
            h.word((self.churn + 0.0).to_bits());
            h.word(self.byzantine as u64);
        }
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&lo.finish().to_le_bytes());
        key[8..].copy_from_slice(&hi.finish().to_le_bytes());
        Ok(JobKey(key))
    }

    /// Encode as versioned spec text (the spool-file format).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(JOB_SPEC_VERSION);
        out.push('\n');
        out.push_str(&format!("protocol {}\n", self.protocol));
        out.push_str(&format!("n {}\n", self.n));
        out.push_str(&format!("init {}\n", self.init));
        out.push_str(&format!("engine {}\n", self.engine.name()));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("max {}\n", self.max_interactions));
        out.push_str(&format!("threads {}\n", self.threads));
        for &(t, f) in &self.bursts {
            out.push_str(&format!("burst {t}:{f}\n"));
        }
        if self.fault_rate > 0.0 {
            out.push_str(&format!("fault-rate {}\n", self.fault_rate));
        }
        if self.churn > 0.0 {
            out.push_str(&format!("churn {}\n", self.churn));
        }
        if self.byzantine > 0 {
            out.push_str(&format!("byzantine {}\n", self.byzantine));
        }
        out
    }

    /// Decode spec text.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Spec`] for version or syntax violations.
    pub fn decode(text: &str) -> Result<Self, ServiceError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header.trim() != JOB_SPEC_VERSION {
            return Err(ServiceError::Spec(format!(
                "unsupported spec header '{header}' (expected '{JOB_SPEC_VERSION}')"
            )));
        }
        let mut spec = JobSpec::new("tree", 0, 0);
        spec.protocol = String::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| ServiceError::Spec(format!("malformed line '{line}'")))?;
            let v = v.trim();
            match k {
                "protocol" => spec.protocol = v.to_string(),
                "n" => spec.n = parse(v, "n")?,
                "init" => {
                    let (fam, arg) = v.split_once(' ').unwrap_or((v, ""));
                    spec.init = match fam {
                        "stacked" => JobInit::Stacked,
                        "uniform" => JobInit::Uniform,
                        "perfect" => JobInit::Perfect,
                        "all-in" => JobInit::AllIn(parse(arg, "init all-in")?),
                        "k-distant" => JobInit::KDistant(parse(arg, "init k-distant")?),
                        other => return Err(ServiceError::Spec(format!("unknown init '{other}'"))),
                    };
                }
                "engine" => spec.engine = EngineKind::parse(v).map_err(ServiceError::Spec)?,
                "seed" => spec.seed = parse(v, "seed")?,
                "max" => spec.max_interactions = parse(v, "max")?,
                "threads" => spec.threads = parse(v, "threads")?,
                "burst" => {
                    let (t, f) = v.split_once(':').ok_or_else(|| {
                        ServiceError::Spec(format!("burst expects time:faults, got '{v}'"))
                    })?;
                    spec.bursts
                        .push((parse(t, "burst time")?, parse(f, "burst faults")?));
                }
                "fault-rate" => spec.fault_rate = parse_rate(v, "fault-rate")?,
                "churn" => spec.churn = parse_rate(v, "churn")?,
                "byzantine" => spec.byzantine = parse(v, "byzantine")?,
                other => return Err(ServiceError::Spec(format!("unknown spec field '{other}'"))),
            }
        }
        if spec.protocol.is_empty() || spec.n == 0 {
            return Err(ServiceError::Spec(
                "spec must set at least protocol and n".into(),
            ));
        }
        Ok(spec)
    }
}

fn parse<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, ServiceError> {
    v.trim()
        .parse()
        .map_err(|_| ServiceError::Spec(format!("{what}: cannot parse '{v}'")))
}

/// A fault or churn rate, which must be a probability. `encode` writes a
/// rate only when it is positive, so a negative or NaN rate would not
/// survive a round trip; `validate` refuses them too.
fn parse_rate(v: &str, what: &str) -> Result<f64, ServiceError> {
    let rate: f64 = parse(v, what)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(ServiceError::Spec(format!(
            "{what} must be a probability in [0, 1], got '{v}'"
        )));
    }
    Ok(rate)
}

/// Snapshot shapes already derived in this process, keyed by canonical
/// protocol name and `n`.
///
/// A shape is a pure function of `(protocol, n)`, but deriving it costs a
/// [`schema_hash`](InteractionSchema::schema_hash) — one `transition`
/// probe per rank state, ~10 ms for tree at n = 65536 — and a job needs
/// it at submission, at claim, for its key in `run_job` and for its
/// checkpoints. The memo holds at most [`CAP`](Self::CAP) entries and
/// forgets the oldest first. A poisoned lock is not an error: the shape
/// is then derived afresh.
struct ShapeMemo {
    entries: Mutex<Vec<(&'static str, usize, SnapshotShape)>>,
}

impl ShapeMemo {
    /// Most `(protocol, n)` entries kept.
    const CAP: usize = 64;

    const fn new() -> Self {
        ShapeMemo {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The shape of `spec`'s protocol, derived on first use.
    fn shape(&self, spec: &JobSpec) -> Result<SnapshotShape, ServiceError> {
        let protocol = spec.canonical_protocol()?;
        let n = spec.n;
        if let Ok(entries) = self.entries.lock() {
            if let Some(&(_, _, shape)) = entries.iter().find(|e| e.0 == protocol && e.1 == n) {
                return Ok(shape);
            }
        }
        let shape = SnapshotShape::of(spec.make_protocol()?.as_ref());
        if let Ok(mut entries) = self.entries.lock() {
            if !entries.iter().any(|e| e.0 == protocol && e.1 == n) {
                if entries.len() == Self::CAP {
                    entries.remove(0);
                }
                entries.push((protocol, n, shape));
            }
        }
        Ok(shape)
    }
}

/// The process-wide memo behind [`JobSpec::shape`] and [`JobSpec::key`].
static SHAPES: ShapeMemo = ShapeMemo::new();

/// FNV-1a 64, fed word-at-a-time (bytes in little-endian order, so the
/// digest is host-independent).
struct Fnv(u64);

impl Fnv {
    fn new(basis: u64) -> Self {
        Fnv(basis)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// 128-bit content address of a job. The hex form is the spool file name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub [u8; 16]);

impl JobKey {
    /// 32-character lowercase hex form (stable, filesystem-safe).
    pub fn hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parse the hex form back.
    pub fn from_hex(s: &str) -> Option<JobKey> {
        let s = s.trim();
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut key = [0u8; 16];
        for (i, chunk) in key.iter_mut().enumerate() {
            *chunk = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(JobKey(key))
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// How a completed run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatusKind {
    /// Reached a silent configuration within the budget.
    Silent,
    /// Budget exhausted first (still a *result* — deterministic per spec).
    Timeout,
}

/// Adversary observables of a fault-plan job (mirrors
/// [`ssr_engine::RunOutcome`] minus the report, which lives in the parent
/// [`JobResult`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeStats {
    /// Time-weighted availability.
    pub availability: f64,
    /// Time-weighted mean `k`-distance.
    pub mean_k: f64,
    /// Maximum `k`-distance excursion.
    pub max_k: usize,
    /// Corruption attempts injected.
    pub faults_injected: u64,
    /// Churn events executed.
    pub churn_events: u64,
    /// Per-burst records `(time, faults, k_after, recovery)`.
    pub bursts: Vec<(u128, u32, usize, Option<u128>)>,
}

/// The memoised outcome of one job. `PartialEq` compares every field —
/// floats included — so the kill/resume test can assert bit-identity
/// (floats are encoded by bit pattern and never NaN).
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Silent or budget-exhausted.
    pub status: JobStatusKind,
    /// Final interaction clock (u64 view, saturating).
    pub interactions: u64,
    /// Final interaction clock, full width.
    pub interactions_wide: u128,
    /// Productive interactions executed.
    pub productive: u64,
    /// Parallel time (interactions / n).
    pub parallel_time: f64,
    /// Adversary observables; `None` for fault-free jobs.
    pub outcome: Option<OutcomeStats>,
}

impl JobResult {
    /// Encode as versioned result text. Floats are written as `f64` bit
    /// patterns (hex) so decoding is exact.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(JOB_RESULT_VERSION);
        out.push('\n');
        out.push_str(match self.status {
            JobStatusKind::Silent => "status silent\n",
            JobStatusKind::Timeout => "status timeout\n",
        });
        out.push_str(&format!("interactions {}\n", self.interactions));
        out.push_str(&format!("interactions-wide {}\n", self.interactions_wide));
        out.push_str(&format!("productive {}\n", self.productive));
        out.push_str(&format!(
            "parallel-time-bits {:016x}\n",
            self.parallel_time.to_bits()
        ));
        if let Some(o) = &self.outcome {
            out.push_str(&format!(
                "outcome {:016x} {:016x} {} {} {}\n",
                o.availability.to_bits(),
                o.mean_k.to_bits(),
                o.max_k,
                o.faults_injected,
                o.churn_events
            ));
            for &(t, f, k, r) in &o.bursts {
                match r {
                    Some(r) => out.push_str(&format!("burst {t}:{f}:{k}:{r}\n")),
                    None => out.push_str(&format!("burst {t}:{f}:{k}:-\n")),
                }
            }
        }
        out
    }

    /// Decode result text.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Spec`] for version or syntax violations.
    pub fn decode(text: &str) -> Result<Self, ServiceError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header.trim() != JOB_RESULT_VERSION {
            return Err(ServiceError::Spec(format!(
                "unsupported result header '{header}' (expected '{JOB_RESULT_VERSION}')"
            )));
        }
        let mut result = JobResult {
            status: JobStatusKind::Silent,
            interactions: 0,
            interactions_wide: 0,
            productive: 0,
            parallel_time: 0.0,
            outcome: None,
        };
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| ServiceError::Spec(format!("malformed line '{line}'")))?;
            let v = v.trim();
            match k {
                "status" => {
                    result.status = match v {
                        "silent" => JobStatusKind::Silent,
                        "timeout" => JobStatusKind::Timeout,
                        other => {
                            return Err(ServiceError::Spec(format!("unknown status '{other}'")))
                        }
                    };
                }
                "interactions" => result.interactions = parse(v, "interactions")?,
                "interactions-wide" => {
                    result.interactions_wide = parse(v, "interactions-wide")?;
                }
                "productive" => result.productive = parse(v, "productive")?,
                "parallel-time-bits" => {
                    let bits = u64::from_str_radix(v, 16).map_err(|_| {
                        ServiceError::Spec(format!("parallel-time-bits: bad hex '{v}'"))
                    })?;
                    result.parallel_time = f64::from_bits(bits);
                }
                "outcome" => {
                    let parts: Vec<&str> = v.split_whitespace().collect();
                    if parts.len() != 5 {
                        return Err(ServiceError::Spec(format!(
                            "outcome expects 5 fields, got '{v}'"
                        )));
                    }
                    let fbits = |s: &str, what: &str| -> Result<f64, ServiceError> {
                        u64::from_str_radix(s, 16)
                            .map(f64::from_bits)
                            .map_err(|_| ServiceError::Spec(format!("{what}: bad hex '{s}'")))
                    };
                    result.outcome = Some(OutcomeStats {
                        availability: fbits(parts[0], "availability")?,
                        mean_k: fbits(parts[1], "mean-k")?,
                        max_k: parse(parts[2], "max-k")?,
                        faults_injected: parse(parts[3], "faults-injected")?,
                        churn_events: parse(parts[4], "churn-events")?,
                        bursts: Vec::new(),
                    });
                }
                "burst" => {
                    let o = result.outcome.as_mut().ok_or_else(|| {
                        ServiceError::Spec("burst line before outcome line".into())
                    })?;
                    let parts: Vec<&str> = v.split(':').collect();
                    if parts.len() != 4 {
                        return Err(ServiceError::Spec(format!(
                            "burst expects t:f:k:r, got '{v}'"
                        )));
                    }
                    let recovery = match parts[3] {
                        "-" => None,
                        r => Some(parse(r, "burst recovery")?),
                    };
                    o.bursts.push((
                        parse(parts[0], "burst time")?,
                        parse(parts[1], "burst faults")?,
                        parse(parts[2], "burst k")?,
                        recovery,
                    ));
                }
                other => {
                    return Err(ServiceError::Spec(format!(
                        "unknown result field '{other}'"
                    )))
                }
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssr_engine::rng::Xoshiro256;

    fn sample_spec() -> JobSpec {
        let mut spec = JobSpec::new("tree", 65_536, 42);
        spec.init = JobInit::KDistant(5);
        spec.max_interactions = 1_000_000_000;
        spec.threads = 4;
        spec.bursts = vec![(1_000, 4), (5_000_000, 2)];
        spec.fault_rate = 1e-7;
        spec.byzantine = 3;
        spec
    }

    #[test]
    fn spec_text_round_trips() {
        let spec = sample_spec();
        assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec);
        let plain = JobSpec::new("ring", 100, 7);
        assert_eq!(JobSpec::decode(&plain.encode()).unwrap(), plain);
    }

    #[test]
    fn spec_decode_rejects_bad_input() {
        assert!(JobSpec::decode("").is_err());
        assert!(JobSpec::decode("ssr-job v9\nprotocol tree\nn 4\n").is_err());
        assert!(JobSpec::decode("ssr-job v1\nprotocol tree\nn 4\nwat 3\n").is_err());
        assert!(JobSpec::decode("ssr-job v1\nprotocol tree\n").is_err());
        for rate in ["-1", "NaN", "1.5", "inf"] {
            let text = format!("ssr-job v1\nprotocol tree\nn 4\nchurn {rate}\n");
            assert!(JobSpec::decode(&text).is_err(), "churn {rate}");
        }
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let spec = sample_spec();
        assert_eq!(spec.key().unwrap(), spec.key().unwrap());
        let mut other = spec.clone();
        other.seed += 1;
        assert_ne!(spec.key().unwrap(), other.key().unwrap());
        let mut other = spec.clone();
        other.protocol = "ring".into();
        assert_ne!(spec.key().unwrap(), other.key().unwrap());
        let mut other = spec.clone();
        other.bursts[0].1 += 1;
        assert_ne!(spec.key().unwrap(), other.key().unwrap());
    }

    #[test]
    fn key_excludes_threads_and_canonicalises() {
        let spec = sample_spec();
        let mut other = spec.clone();
        other.threads = 32;
        assert_eq!(
            spec.key().unwrap(),
            other.key().unwrap(),
            "threads are scheduling"
        );

        // Auto resolves to count at n ≥ 4096: same run, same key.
        let mut auto = spec.clone();
        auto.engine = EngineKind::Auto;
        let mut count = spec;
        count.engine = EngineKind::Count;
        assert_eq!(auto.key().unwrap(), count.key().unwrap());

        // `ag` is the same protocol as `generic`.
        let a = JobSpec::new("ag", 64, 1);
        let g = JobSpec::new("generic", 64, 1);
        assert_eq!(a.key().unwrap(), g.key().unwrap());
    }

    /// The memoised shape, cold and then warm, is the shape of a freshly
    /// built protocol — for every protocol at several `n` — and so is the
    /// process-wide one behind `JobSpec::shape`.
    #[test]
    fn memoised_shape_matches_a_fresh_derivation() {
        let memo = ShapeMemo::new();
        for protocol in ["generic", "ag", "ring", "line", "tree"] {
            for n in [64, 1056, 4096, 65_536] {
                let spec = JobSpec::new(protocol, n, 1);
                let fresh = spec.make_protocol().unwrap();
                let expected = SnapshotShape::of(fresh.as_ref());
                assert_eq!(expected.schema_hash, fresh.schema_hash());
                assert_eq!(
                    memo.shape(&spec).unwrap(),
                    expected,
                    "{protocol} n={n} cold"
                );
                assert_eq!(
                    memo.shape(&spec).unwrap(),
                    expected,
                    "{protocol} n={n} warm"
                );
                assert_eq!(
                    spec.shape().unwrap(),
                    expected,
                    "{protocol} n={n} process memo"
                );
            }
        }
        // `ag` and `generic` share entries.
        assert_eq!(memo.entries.lock().unwrap().len(), 4 * 4);
        assert!(memo.shape(&JobSpec::new("warp", 64, 1)).is_err());
    }

    #[test]
    fn shape_memo_is_bounded_and_forgets_the_oldest() {
        let memo = ShapeMemo::new();
        for n in 1..=ShapeMemo::CAP + 3 {
            memo.shape(&JobSpec::new("generic", n, 0)).unwrap();
        }
        let entries = memo.entries.lock().unwrap();
        assert_eq!(entries.len(), ShapeMemo::CAP);
        assert_eq!(entries[0].1, 4, "n = 1, 2, 3 were forgotten");
    }

    #[test]
    fn poisoned_shape_memo_still_derives() {
        let memo = ShapeMemo::new();
        let spec = JobSpec::new("tree", 1056, 0);
        let expected = memo.shape(&spec).unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = memo.entries.lock().unwrap();
            panic!("poison the memo");
        }));
        assert!(memo.entries.is_poisoned());
        assert_eq!(memo.shape(&spec).unwrap(), expected);
    }

    /// A rate of -0 is no rate: `encode` drops it, and the key of the
    /// spec equals the key of its decoded text.
    #[test]
    fn negative_zero_rates_key_like_no_rate() {
        let mut spec = JobSpec::new("tree", 64, 1);
        spec.fault_rate = -0.0;
        spec.churn = -0.0;
        let decoded = JobSpec::decode(&spec.encode()).unwrap();
        assert_eq!(spec.key().unwrap(), decoded.key().unwrap());
        assert_eq!(
            spec.key().unwrap(),
            JobSpec::new("tree", 64, 1).key().unwrap()
        );
    }

    #[test]
    fn key_hex_round_trips() {
        let key = sample_spec().key().unwrap();
        assert_eq!(JobKey::from_hex(&key.hex()), Some(key));
        assert_eq!(JobKey::from_hex("zz"), None);
        assert_eq!(JobKey::from_hex(&"0".repeat(31)), None);
    }

    #[test]
    fn result_text_round_trips_bit_exactly() {
        let result = JobResult {
            status: JobStatusKind::Timeout,
            interactions: u64::MAX,
            interactions_wide: (u64::MAX as u128) * 3,
            productive: 123_456,
            parallel_time: 1234.5678901234567,
            outcome: Some(OutcomeStats {
                availability: 0.9987654321,
                mean_k: 0.1234,
                max_k: 17,
                faults_injected: 99,
                churn_events: 3,
                bursts: vec![(1_000, 4, 7, Some(88_000)), (2_000, 2, 3, None)],
            }),
        };
        let decoded = JobResult::decode(&result.encode()).unwrap();
        assert_eq!(decoded, result);
        assert_eq!(
            decoded.parallel_time.to_bits(),
            result.parallel_time.to_bits()
        );
    }

    #[test]
    fn validate_catches_unsatisfiable_specs() {
        assert!(JobSpec::new("tree", 64, 1).validate().is_ok());
        assert!(JobSpec::new("warp", 64, 1).validate().is_err());
        assert!(JobSpec::new("tree", 0, 1).validate().is_err());
        let mut bad = JobSpec::new("tree", 64, 1);
        bad.init = JobInit::KDistant(64);
        assert!(bad.validate().is_err());
        let mut unbounded = JobSpec::new("tree", 64, 1);
        unbounded.churn = 1e-6;
        assert!(unbounded.validate().is_err(), "persistent plan needs a cap");
        unbounded.max_interactions = 1_000_000;
        assert!(unbounded.validate().is_ok());
    }

    /// Values no field accepts everywhere: signs, overflow, NaN, hex,
    /// separators, non-ASCII, control characters.
    const AWKWARD: &[&str] = &[
        "-1",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "-0.25",
        "-0",
        "NaN",
        "inf",
        "-inf",
        "1e400",
        "zz",
        "",
        " ",
        ":",
        "1:2:3:4:5",
        "x:y",
        "a b c d e",
        "é",
        "\u{0}",
        "\t",
    ];
    const NUMBERS: &[&str] = &["0", "1", "7", "4096", "18446744073709551615"];
    const RATES: &[&str] = &["0", "1e-7", "0.5", "1", "1.5"];
    const SPEC_FIELDS: &[(&str, &[&str])] = &[
        (
            "protocol",
            &["tree", "ring", "line", "generic", "ag", "warp", "a b"],
        ),
        ("n", NUMBERS),
        (
            "init",
            &[
                "stacked",
                "uniform",
                "perfect",
                "all-in 3",
                "all-in",
                "k-distant 2",
            ],
        ),
        ("engine", &["count", "jump", "naive", "auto", "warp"]),
        ("seed", NUMBERS),
        ("max", NUMBERS),
        ("threads", NUMBERS),
        (
            "burst",
            &[
                "1:2",
                "0:0",
                "340282366920938463463374607431768211455:4294967295",
                "1",
            ],
        ),
        ("fault-rate", RATES),
        ("churn", RATES),
        ("byzantine", NUMBERS),
    ];
    const RESULT_FIELDS: &[(&str, &[&str])] = &[
        ("status", &["silent", "timeout", "done"]),
        ("interactions", NUMBERS),
        ("interactions-wide", NUMBERS),
        ("productive", NUMBERS),
        (
            "parallel-time-bits",
            &["3fb999999999999a", "ffffffffffffffff", "0"],
        ),
        (
            "outcome",
            &["0 0 1 2 3", "3ff0000000000000 0 1 2", "0 0 -1 2 3"],
        ),
        ("burst", &["1:2:3:4", "1:2:3:-", "1:2:3"]),
    ];

    /// Text shaped like a spool format: a header that is usually right,
    /// then lines of `fields` with mostly fitting and sometimes
    /// [`AWKWARD`] values, stray spaces, tabs, carriage returns and the
    /// odd unknown field.
    fn format_like_text(seed: u64, header: &str, fields: &[(&str, &[&'static str])]) -> String {
        fn pick(rng: &mut Xoshiro256, xs: &[&'static str]) -> &'static str {
            xs[rng.below_usize(xs.len())]
        }
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut text = String::new();
        text.push_str(match rng.below(8) {
            0 => " ",
            1 => "ssr-job v2",
            2 => "ssr-result v1",
            _ => header,
        });
        text.push('\n');
        if seed & 1 == 0 {
            // The fields a spec must set, so that many texts decode.
            text.push_str("protocol tree\nn 8\n");
        }
        for _ in 0..rng.below(8) {
            let (field, fitting) = fields[rng.below_usize(fields.len())];
            text.push_str(if rng.below(32) == 0 { "bogus" } else { field });
            text.push_str(pick(&mut rng, &[" ", " ", " ", " ", " ", "  ", "\t", ""]));
            let value = if rng.below(6) == 0 { AWKWARD } else { fitting };
            text.push_str(pick(&mut rng, value));
            text.push_str(pick(
                &mut rng,
                &["\n", "\n", "\n", "\r\n", " \n", "\n\n", ""],
            ));
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Spec decoding never panics, and any spec that decodes
        /// re-encodes to text that decodes to an equal spec.
        #[test]
        fn spec_decode_never_panics_and_round_trips(
            seed in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let shaped = format_like_text(seed, JOB_SPEC_VERSION, SPEC_FIELDS);
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            let spliced = format!("{JOB_SPEC_VERSION}\nprotocol tree\nn 8\n{raw}");
            for text in [shaped, raw, spliced] {
                if let Ok(spec) = JobSpec::decode(&text) {
                    let again = JobSpec::decode(&spec.encode());
                    prop_assert!(again.is_ok(), "{:?} re-encodes to undecodable text", text);
                    prop_assert_eq!(again.unwrap(), spec, "text {:?}", text);
                }
            }
        }

        /// Result decoding never panics on arbitrary or result-shaped
        /// text.
        #[test]
        fn result_decode_never_panics(
            seed in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let shaped = format_like_text(seed, JOB_RESULT_VERSION, RESULT_FIELDS);
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            let spliced = format!("{JOB_RESULT_VERSION}\noutcome 0 0 1 2 3\n{raw}");
            for text in [shaped, raw, spliced] {
                let _ = JobResult::decode(&text);
            }
        }

        /// Key parsing never panics, and a key that parses prints back as
        /// its (trimmed, lower-cased) input.
        #[test]
        fn key_from_hex_never_panics(
            seed in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let hex = JobKey(seed.to_le_bytes().repeat(2).try_into().unwrap()).hex();
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            // One character of the key replaced by the first of `raw`
            // (which may be a hex digit, multi-byte, or whitespace).
            let mut chars: Vec<char> = hex.chars().collect();
            chars[(seed >> 59) as usize] = raw.chars().next().unwrap_or('G');
            let edited: String = chars.into_iter().collect();
            let upper = hex.to_uppercase();
            let padded = format!(" {hex}\n");
            for text in [hex.as_str(), &edited, &raw, &upper, &padded] {
                if let Some(key) = JobKey::from_hex(text) {
                    prop_assert_eq!(key.hex(), text.trim().to_lowercase());
                }
            }
        }
    }
}

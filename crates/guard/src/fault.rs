//! Deterministic fault injection.
//!
//! A [`FaultPlan`] names *sites* (string labels compiled into the store
//! and exec layers), picks which visit of each site fires, and derives
//! every fault parameter (which byte flips, where a payload is cut, how
//! long an injected stall spins) from the plan's seed via `flipper-rng` —
//! so a failing fault-injection run reproduces from `(seed, plan)` alone.
//!
//! Plans are **armed for one fault scope** ([`arm`]): the arming thread
//! plus every exec-pool worker it (transitively) spawns — the pool carries
//! the scope into its workers ([`current_scope`], [`FaultScope::enter`]).
//! Instrumented sites call [`injected`], which costs one relaxed atomic
//! load while disarmed; while a plan is armed, visits from threads outside
//! its scope neither count as hits nor fire, so an unrelated run on
//! another thread cannot consume or trip the plan. The returned
//! [`ArmedPlan`] guard disarms on drop and holds a global lock, so
//! concurrent tests arming plans serialize instead of interfering.
//!
//! ## Site catalog
//!
//! | site | layer | faults honoured |
//! |------|-------|-----------------|
//! | `store.read.section`  | FBIN section reads (frame + payload + CRC) | `Io`, `BitFlip`, `Truncate`, `Latency` |
//! | `store.write.section` | FBIN section writes | `Io`, `Latency` |
//! | `exec.chunk`          | exec pool worker chunks | `Panic`, `Latency` |
//!
//! Sites ignore fault kinds they don't honour (an injected `Panic` at a
//! store site is treated as `Io`): the storage layer must never panic, so
//! not even the fault injector may make it.

use flipper_rng::{Rng, Xoshiro256pp};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The FBIN section-read site (see the module-level catalog).
pub const SITE_STORE_READ: &str = "store.read.section";
/// The FBIN section-write site.
pub const SITE_STORE_WRITE: &str = "store.write.section";
/// The exec-pool worker-chunk site.
pub const SITE_EXEC_CHUNK: &str = "exec.chunk";

/// The kind of fault a plan injects at a site (parameters are derived from
/// the seed at fire time — see [`Fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A synthetic I/O error.
    Io,
    /// One payload byte XORed with a seed-derived mask.
    BitFlip,
    /// The payload cut short at a seed-derived offset.
    Truncate,
    /// A worker panic (honoured at exec sites only).
    Panic,
    /// A bounded seed-derived busy-wait stall.
    Latency,
}

impl FaultKind {
    /// Stable name for reports and assertions.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Io => "io",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Truncate => "truncate",
            FaultKind::Panic => "panic",
            FaultKind::Latency => "latency",
        }
    }
}

/// A concrete fault, parameters resolved from the plan seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail with a synthetic I/O error.
    Io,
    /// XOR byte `byte % payload_len` with `mask` (never zero).
    BitFlip {
        /// Seed-derived byte position (call sites reduce modulo length).
        byte: usize,
        /// Seed-derived XOR mask, guaranteed non-zero.
        mask: u8,
    },
    /// Truncate the payload to `keep % payload_len` bytes.
    Truncate {
        /// Seed-derived keep length (call sites reduce modulo length).
        keep: usize,
    },
    /// Panic the worker (exec sites only).
    Panic,
    /// Busy-wait for `spins` spin-loop hints.
    Latency {
        /// Seed-derived spin count, bounded at plan derivation.
        spins: u32,
    },
}

#[derive(Debug, Clone)]
struct Trigger {
    site: String,
    /// 1-based visit ordinal that fires this trigger.
    at_hit: u64,
    kind: FaultKind,
}

/// A seeded, site-addressed fault schedule. Build with [`FaultPlan::new`]
/// and [`FaultPlan::inject`], then [`arm`] it.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    triggers: Vec<Trigger>,
}

impl FaultPlan {
    /// An empty plan deriving all fault parameters from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            triggers: Vec::new(),
        }
    }

    /// Fire `kind` on the `at_hit`-th visit (1-based; 0 is treated as 1)
    /// of `site`.
    pub fn inject(mut self, site: &str, at_hit: u64, kind: FaultKind) -> Self {
        self.triggers.push(Trigger {
            site: site.to_string(),
            at_hit: at_hit.max(1),
            kind,
        });
        self
    }

    /// Resolve the concrete [`Fault`] for a trigger: parameters come from a
    /// PRNG seeded by `(plan seed, site, hit ordinal)`, so the same plan
    /// injects the same bytes every run.
    fn resolve(&self, t: &Trigger) -> Fault {
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed ^ fnv1a(&t.site) ^ t.at_hit);
        match t.kind {
            FaultKind::Io => Fault::Io,
            FaultKind::BitFlip => Fault::BitFlip {
                byte: rng.next_u64() as usize,
                mask: (1u8 << (rng.next_u64() % 8)).max(1),
            },
            FaultKind::Truncate => Fault::Truncate {
                keep: rng.next_u64() as usize,
            },
            FaultKind::Panic => Fault::Panic,
            FaultKind::Latency => Fault::Latency {
                spins: 1_000 + (rng.next_u64() % 50_000) as u32,
            },
        }
    }
}

/// FNV-1a over a site name — a stable, dependency-free site fingerprint
/// for seeding.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct PlanState {
    plan: FaultPlan,
    /// The fault scope the plan was armed in; visits from other scopes
    /// are ignored.
    scope: u64,
    /// Visits per site since arming.
    hits: BTreeMap<String, u64>,
    /// Faults that actually fired: `(site, hit ordinal, kind name)`.
    fired: Vec<(String, u64, &'static str)>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Source of fresh scope ids; 0 is the scope of threads no plan reaches.
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The fault scope of the current thread.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// The fault scope of a thread: which armed plan, if any, its site visits
/// answer to. Capture it with [`current_scope`] before handing work to
/// another thread, and [`enter`](FaultScope::enter) it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScope(u64);

/// Guard returned by [`FaultScope::enter`]; restores the thread's previous
/// scope on drop.
pub struct ScopeGuard {
    previous: u64,
}

impl FaultScope {
    /// Make the current thread part of this scope until the guard drops.
    pub fn enter(self) -> ScopeGuard {
        ScopeGuard {
            previous: SCOPE.with(|s| s.replace(self.0)),
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.previous));
    }
}

/// The fault scope of the calling thread.
pub fn current_scope() -> FaultScope {
    FaultScope(SCOPE.with(Cell::get))
}

fn state() -> &'static Mutex<Option<PlanState>> {
    static STATE: OnceLock<Mutex<Option<PlanState>>> = OnceLock::new();
    STATE.get_or_init(Mutex::default)
}

fn arm_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
}

/// Guard over an armed plan: the plan stays active until this drops.
/// Arming is exclusive — a second [`arm`] blocks until the first guard
/// drops, so fault-injection tests serialize automatically.
pub struct ArmedPlan {
    /// The arming thread's scope before [`arm`], restored on drop.
    _scope: ScopeGuard,
    _exclusive: MutexGuard<'static, ()>,
}

impl ArmedPlan {
    /// The faults that have fired so far: `(site, hit ordinal, kind name)`.
    pub fn fired(&self) -> Vec<(String, u64, &'static str)> {
        state()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|s| s.fired.clone())
            .unwrap_or_default()
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Relaxed);
        *state().lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Arm `plan` in a fresh fault scope entered by the calling thread. Sites
/// visited by this thread and the exec workers it spawns start reporting
/// injected faults via [`injected`] until the returned guard drops.
pub fn arm(plan: FaultPlan) -> ArmedPlan {
    let exclusive = arm_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let scope = FaultScope(NEXT_SCOPE.fetch_add(1, Ordering::Relaxed));
    *state().lock().unwrap_or_else(PoisonError::into_inner) = Some(PlanState {
        plan,
        scope: scope.0,
        hits: BTreeMap::new(),
        fired: Vec::new(),
    });
    ACTIVE.store(true, Ordering::Relaxed);
    ArmedPlan {
        _scope: scope.enter(),
        _exclusive: exclusive,
    }
}

/// Site probe: does the armed plan (if any) inject a fault at this visit
/// of `site`? Disarmed cost is one relaxed atomic load.
#[inline]
pub fn injected(site: &str) -> Option<Fault> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    injected_slow(site)
}

#[cold]
fn injected_slow(site: &str) -> Option<Fault> {
    let mut guard = state().lock().unwrap_or_else(PoisonError::into_inner);
    let st = guard.as_mut().filter(|st| st.scope == current_scope().0)?;
    let hit = st.hits.entry(site.to_string()).or_insert(0);
    *hit += 1;
    let ordinal = *hit;
    let trigger = st
        .plan
        .triggers
        .iter()
        .find(|t| t.site == site && t.at_hit == ordinal)?
        .clone();
    let fault = st.plan.resolve(&trigger);
    st.fired
        .push((site.to_string(), ordinal, trigger.kind.name()));
    Some(fault)
}

/// Bounded busy-wait used to realize [`Fault::Latency`] without
/// `std::thread::sleep` (which is reserved to the exec module by the
/// concurrency-discipline lint).
pub fn spin(spins: u32) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_inject_nothing() {
        assert_eq!(injected("store.read.section"), None);
    }

    #[test]
    fn armed_plan_fires_at_the_named_hit_only() {
        let armed = arm(FaultPlan::new(7)
            .inject(SITE_STORE_READ, 2, FaultKind::Io)
            .inject(SITE_EXEC_CHUNK, 1, FaultKind::Panic));
        assert_eq!(injected(SITE_STORE_READ), None); // hit 1
        assert_eq!(injected(SITE_STORE_READ), Some(Fault::Io)); // hit 2
        assert_eq!(injected(SITE_STORE_READ), None); // hit 3
        assert_eq!(injected(SITE_EXEC_CHUNK), Some(Fault::Panic));
        assert_eq!(
            armed.fired(),
            vec![
                (SITE_STORE_READ.to_string(), 2, "io"),
                (SITE_EXEC_CHUNK.to_string(), 1, "panic"),
            ]
        );
        drop(armed);
        assert_eq!(injected(SITE_STORE_READ), None);
    }

    #[test]
    fn fault_parameters_are_seed_deterministic() {
        let probe = |seed: u64| {
            let _armed = arm(FaultPlan::new(seed).inject("s", 1, FaultKind::BitFlip));
            injected("s")
        };
        let a = probe(42);
        let b = probe(42);
        let c = probe(43);
        assert_eq!(a, b, "same seed, same fault");
        assert!(a.is_some());
        assert_ne!(a, c, "different seed should perturb the parameters");
        match a {
            Some(Fault::BitFlip { mask, .. }) => assert_ne!(mask, 0),
            other => panic!("expected BitFlip, got {other:?}"),
        }
    }

    #[test]
    fn latency_spins_are_bounded() {
        let _armed = arm(FaultPlan::new(1).inject("s", 1, FaultKind::Latency));
        match injected("s") {
            Some(Fault::Latency { spins }) => {
                assert!((1_000..=51_000).contains(&spins));
                spin(spins); // must return promptly
            }
            other => panic!("expected Latency, got {other:?}"),
        }
    }

    #[test]
    fn plans_reach_only_their_own_scope() {
        let armed = arm(FaultPlan::new(11).inject("s", 1, FaultKind::Io));
        let scope = current_scope();
        std::thread::scope(|t| {
            // An unrelated thread neither consumes the hit nor fires.
            t.spawn(|| assert_eq!(injected("s"), None)).join().unwrap();
            // A thread handed the arming scope (as exec workers are) does.
            t.spawn(move || {
                let _in = scope.enter();
                assert_eq!(injected("s"), Some(Fault::Io));
            })
            .join()
            .unwrap();
        });
        assert_eq!(armed.fired(), vec![("s".to_string(), 1, "io")]);
        drop(armed);
        assert_eq!(
            current_scope(),
            FaultScope(0),
            "disarming restores the scope"
        );
    }

    #[test]
    fn rearming_resets_hit_counters() {
        {
            let _armed = arm(FaultPlan::new(5).inject("s", 1, FaultKind::Io));
            assert_eq!(injected("s"), Some(Fault::Io));
        }
        {
            let _armed = arm(FaultPlan::new(5).inject("s", 1, FaultKind::Io));
            assert_eq!(injected("s"), Some(Fault::Io), "hit counter restarted");
        }
    }
}

//! Seeded fault injection for the simulated DFS.
//!
//! The injector turns a declarative [`FaultPlan`] into per-operation fault
//! decisions. Every decision is a pure function of `(plan.seed, operation
//! index, fault class)` through a splitmix64 hash — there is no OS entropy,
//! no wall clock, and no shared RNG stream, so a run's fault sequence is
//! reproducible bit-for-bit and *cannot* perturb any other seeded RNG in the
//! system. Fault classes with a zero rate draw nothing, and [`crate::Dfs`]
//! built without an injector ([`crate::Dfs::new`]) performs zero fault
//! bookkeeping, which is what makes the disabled harness provably
//! transparent (asserted byte-for-byte in `tests/chaos.rs`).
//!
//! Virtual time enters through [`FaultInjector::begin_day`]: the pipeline
//! advances the injector's day counter at the start of each simulated day,
//! and the plan's day windows gate which faults are live.

use bytes::Bytes;
use parking_lot::Mutex;
use sigmund_types::{CellId, FaultPlan};

/// Running totals of injected faults, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read errors injected.
    pub read_errors: u64,
    /// Transient write errors injected (lost writes).
    pub write_errors: u64,
    /// Torn (truncated) reads injected.
    pub torn_reads: u64,
    /// Cross-cell reads blocked by an active partition.
    pub partition_blocks: u64,
    /// Silent single-bit flips injected into stored payloads at write time.
    pub bit_flips: u64,
    /// Kill-points fired (0 or 1 per injector: a crash is sticky).
    pub crashes: u64,
}

/// What the injector decided for one `read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// No fault: return the stored bytes.
    None,
    /// Fail the read with a transient error.
    Error,
    /// Return a torn (truncated) payload.
    Torn,
    /// The read crosses an active partition boundary: fail it.
    Partitioned,
    /// The process is (now) dead: fail with the sticky crash error.
    Crashed,
}

/// What the injector decided for one `write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// No fault: store the bytes.
    None,
    /// Fail the write with a transient error; nothing is stored.
    Error,
    /// Store the bytes with one bit flipped — the write *reports success*
    /// and the corruption persists. `entropy` is a seed-derived hash the
    /// DFS maps to a bit position within the payload.
    BitFlip {
        /// Seed-derived hash selecting which bit to flip.
        entropy: u64,
    },
    /// The process is (now) dead: fail with the sticky crash error; nothing
    /// is stored.
    Crashed,
}

#[derive(Debug)]
struct FaultState {
    day: u32,
    ops: u64,
    /// Storage operations seen since the current day's `begin_day` — the
    /// kill-point index space. Separate from `ops` (the rate-class draw
    /// counter) so arming a crash never shifts which ops the rate classes
    /// fault.
    kill_ops: u64,
    /// Sticky: set when the kill-point fires; every later op fails.
    crashed: bool,
    stats: FaultStats,
}

/// Per-operation fault decider attached to a [`crate::Dfs`].
///
/// Interior-mutable so the `Dfs` API stays `&self`; the lock guards only a
/// counter triple and is uncontended in single-threaded simulation runs.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

/// SplitMix64 finalizer — the standard seed-scrambling hash (Steele et al.),
/// used here as a stateless counter-mode PRNG: `hash(seed ^ op ^ salt)`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform f64 in `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// Domain-separation salts so read-error, torn-read, and write-error draws at
// the same op index are independent.
const SALT_READ: u64 = 0x52_45_41_44; // "READ"
const SALT_TORN: u64 = 0x54_4F_52_4E; // "TORN"
const SALT_WRITE: u64 = 0x57_52_49_54; // "WRIT"
const SALT_FLIP: u64 = 0x46_4C_49_50; // "FLIP"

impl FaultInjector {
    /// Wraps a plan. The injector starts at day 0 with zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            state: Mutex::new(FaultState {
                day: 0,
                ops: 0,
                kill_ops: 0,
                crashed: false,
                stats: FaultStats::default(),
            }),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances the injector's virtual-day counter. Called by the pipeline
    /// at the start of each simulated day; day windows in the plan are
    /// evaluated against this.
    pub fn begin_day(&self, day: u32) {
        let mut st = self.state.lock();
        st.day = day;
        // The kill-point op index is scoped to a day, so `crash_at: (d, k)`
        // means "the k-th storage op after day d begins".
        st.kill_ops = 0;
    }

    /// True once the kill-point has fired: the simulated process is dead and
    /// every storage operation fails with `SigmundError::Crashed`.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Kill-point gate, consulted first by every storage operation (reads,
    /// writes, renames, deletes). Returns `true` if this operation must fail
    /// with the sticky crash error. Consumes no randomness and touches no
    /// rate-class counters, so arming a crash cannot perturb any other fault
    /// class's decisions.
    fn crash_gate(&self, st: &mut FaultState) -> bool {
        if st.crashed {
            return true;
        }
        let Some((day, at_op)) = self.plan.crash_at else {
            return false;
        };
        if st.day != day {
            return false;
        }
        let op = st.kill_ops;
        st.kill_ops += 1;
        if op == at_op {
            st.crashed = true;
            st.stats.crashes += 1;
            return true;
        }
        false
    }

    /// Crash gate for metadata operations (rename, delete), which no rate
    /// class touches. Returns `true` if the op must fail as crashed.
    pub(crate) fn on_meta_op(&self) -> bool {
        let mut st = self.state.lock();
        self.crash_gate(&mut st)
    }

    /// Injected-fault totals so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats
    }

    /// The raw hash for op `op` under `salt`. Pure: no state involved beyond
    /// the already-assigned op index.
    fn hash(&self, op: u64, salt: u64) -> u64 {
        splitmix64(self.plan.seed ^ op.wrapping_mul(0x0100_0000_01B3) ^ salt)
    }

    /// One uniform draw for op `op` under `salt`.
    fn draw(&self, op: u64, salt: u64) -> f64 {
        unit(self.hash(op, salt))
    }

    /// Decides the fate of a read of `path` issued by `reader` for data
    /// homed in `home`.
    pub(crate) fn on_read(&self, reader: CellId, home: CellId) -> ReadFault {
        let mut st = self.state.lock();
        if self.crash_gate(&mut st) {
            return ReadFault::Crashed;
        }
        let day = st.day;
        // Partitions are deterministic (no draw): any read crossing the
        // boundary of a partitioned cell is blocked for the whole window.
        if reader != home {
            let crossed = self
                .plan
                .partitions
                .iter()
                .any(|p| p.active_on(day) && (p.cell == reader || p.cell == home));
            if crossed {
                st.stats.partition_blocks += 1;
                return ReadFault::Partitioned;
            }
        }
        if !self.plan.active_on(day) {
            return ReadFault::None;
        }
        if self.plan.read_error_rate > 0.0 {
            st.ops += 1;
            let op = st.ops;
            if self.draw(op, SALT_READ) < self.plan.read_error_rate {
                st.stats.read_errors += 1;
                return ReadFault::Error;
            }
        }
        if self.plan.corrupt_rate > 0.0 {
            st.ops += 1;
            let op = st.ops;
            if self.draw(op, SALT_TORN) < self.plan.corrupt_rate {
                st.stats.torn_reads += 1;
                return ReadFault::Torn;
            }
        }
        ReadFault::None
    }

    /// Decides the fate of a write. Draw order is fixed (write-error first,
    /// then bit-flip) and each class draws only when its rate is non-zero,
    /// so plans without `bitflip_rate` see exactly the op sequence they saw
    /// before the class existed.
    pub(crate) fn on_write(&self) -> WriteFault {
        let mut st = self.state.lock();
        if self.crash_gate(&mut st) {
            return WriteFault::Crashed;
        }
        if !self.plan.active_on(st.day) {
            return WriteFault::None;
        }
        if self.plan.write_error_rate > 0.0 {
            st.ops += 1;
            let op = st.ops;
            if self.draw(op, SALT_WRITE) < self.plan.write_error_rate {
                st.stats.write_errors += 1;
                return WriteFault::Error;
            }
        }
        if self.plan.bitflip_rate > 0.0 {
            st.ops += 1;
            let op = st.ops;
            if self.draw(op, SALT_FLIP) < self.plan.bitflip_rate {
                st.stats.bit_flips += 1;
                // Re-hash so the bit position is independent of the bits the
                // threshold comparison consumed.
                return WriteFault::BitFlip {
                    entropy: splitmix64(self.hash(op, SALT_FLIP)),
                };
            }
        }
        WriteFault::None
    }
}

/// Tears `data` the way a half-landed transfer would: keep the first half,
/// drop the rest. The short last chunk (or the missing ones) fails the
/// storage layer's chunk verification, which surfaces
/// [`sigmund_types::SigmundError::Corrupt`].
pub(crate) fn tear(data: &[u8]) -> &[u8] {
    &data[..data.len() / 2]
}

/// Flips one bit of `data`, chosen by `entropy` modulo the payload's bit
/// length. Empty payloads are returned unchanged (there is nothing to flip —
/// and the checksum of an empty blob would still match, correctly so).
pub(crate) fn flip(data: &Bytes, entropy: u64) -> Bytes {
    if data.is_empty() {
        return data.clone();
    }
    let bit = entropy % (data.len() as u64 * 8);
    let mut out = data.to_vec();
    out[(bit / 8) as usize] ^= 1 << (bit % 8);
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_types::Partition;

    fn plan(read: f64, write: f64, corrupt: f64) -> FaultPlan {
        FaultPlan {
            seed: 42,
            read_error_rate: read,
            write_error_rate: write,
            corrupt_rate: corrupt,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_op() {
        let run = || {
            let mut p = plan(0.3, 0.3, 0.1);
            p.bitflip_rate = 0.2;
            let inj = FaultInjector::new(p);
            let mut log = Vec::new();
            for _ in 0..200 {
                log.push((inj.on_read(CellId(0), CellId(0)), inj.on_write()));
            }
            (log, inj.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rates_roughly_hold() {
        let inj = FaultInjector::new(plan(0.25, 0.25, 0.0));
        for _ in 0..2000 {
            inj.on_read(CellId(0), CellId(0));
            inj.on_write();
        }
        let s = inj.stats();
        // 2000 draws each at p=0.25: expect ~500, allow a wide band.
        assert!((350..650).contains(&(s.read_errors as i64)), "{s:?}");
        assert!((350..650).contains(&(s.write_errors as i64)), "{s:?}");
    }

    #[test]
    fn zero_rates_draw_nothing_and_inject_nothing() {
        let inj = FaultInjector::new(plan(0.0, 0.0, 0.0));
        for _ in 0..100 {
            assert_eq!(inj.on_read(CellId(0), CellId(1)), ReadFault::None);
            assert_eq!(inj.on_write(), WriteFault::None);
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert_eq!(inj.state.lock().ops, 0, "no-op classes must not draw");
    }

    #[test]
    fn day_window_gates_rate_faults() {
        let p = FaultPlan {
            from_day: 1,
            until_day: 2,
            ..plan(1.0, 1.0, 0.0)
        };
        let inj = FaultInjector::new(p);
        assert_eq!(inj.on_read(CellId(0), CellId(0)), ReadFault::None);
        inj.begin_day(1);
        assert_eq!(inj.on_read(CellId(0), CellId(0)), ReadFault::Error);
        assert_eq!(inj.on_write(), WriteFault::Error);
        inj.begin_day(2);
        assert_eq!(inj.on_read(CellId(0), CellId(0)), ReadFault::None);
        assert_eq!(inj.on_write(), WriteFault::None);
    }

    #[test]
    fn bitflip_draws_are_deterministic_and_counted() {
        let p = FaultPlan {
            seed: 7,
            bitflip_rate: 1.0,
            ..FaultPlan::default()
        };
        let first = {
            let inj = FaultInjector::new(p.clone());
            (inj.on_write(), inj.on_write(), inj.stats())
        };
        let second = {
            let inj = FaultInjector::new(p);
            (inj.on_write(), inj.on_write(), inj.stats())
        };
        assert_eq!(first, second);
        assert!(matches!(first.0, WriteFault::BitFlip { .. }));
        assert_eq!(first.2.bit_flips, 2);
        // Consecutive ops pick independent entropy.
        let (WriteFault::BitFlip { entropy: e0 }, WriteFault::BitFlip { entropy: e1 }) =
            (first.0, first.1)
        else {
            panic!("rate 1.0 must flip every write");
        };
        assert_ne!(e0, e1);
    }

    #[test]
    fn flip_changes_exactly_one_bit() {
        let data = Bytes::from(vec![0u8; 16]);
        let flipped = flip(&data, 0xDEAD_BEEF);
        let changed: u32 = data
            .iter()
            .zip(flipped.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(changed, 1);
        assert_eq!(flipped.len(), data.len());
        // Empty payloads pass through untouched.
        assert_eq!(flip(&Bytes::new(), 123), Bytes::new());
    }

    #[test]
    fn partitions_block_cross_cell_reads_only() {
        let p = FaultPlan {
            partitions: vec![Partition {
                cell: CellId(1),
                from_day: 0,
                until_day: 1,
            }],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(p);
        // Local reads inside the partitioned cell still work.
        assert_eq!(inj.on_read(CellId(1), CellId(1)), ReadFault::None);
        // Crossing the boundary in either direction is blocked.
        assert_eq!(inj.on_read(CellId(0), CellId(1)), ReadFault::Partitioned);
        assert_eq!(inj.on_read(CellId(1), CellId(0)), ReadFault::Partitioned);
        // Unrelated cross-cell traffic is untouched.
        assert_eq!(inj.on_read(CellId(0), CellId(2)), ReadFault::None);
        // Window over: everything flows again.
        inj.begin_day(1);
        assert_eq!(inj.on_read(CellId(0), CellId(1)), ReadFault::None);
        assert_eq!(inj.stats().partition_blocks, 2);
    }

    #[test]
    fn crash_fires_at_the_exact_op_and_sticks() {
        let p = FaultPlan {
            crash_at: Some((0, 2)),
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(p);
        // Ops 0 and 1 pass, op 2 crashes, and everything after stays dead —
        // including metadata ops retries cannot absorb.
        assert_eq!(inj.on_read(CellId(0), CellId(0)), ReadFault::None);
        assert_eq!(inj.on_write(), WriteFault::None);
        assert!(!inj.crashed());
        assert_eq!(inj.on_write(), WriteFault::Crashed);
        assert!(inj.crashed());
        assert_eq!(inj.on_read(CellId(0), CellId(0)), ReadFault::Crashed);
        assert!(inj.on_meta_op());
        assert_eq!(inj.stats().crashes, 1, "a sticky crash counts once");
    }

    #[test]
    fn crash_op_index_is_scoped_to_its_day() {
        let p = FaultPlan {
            crash_at: Some((1, 1)),
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(p);
        // Day 0 ops never trip a day-1 kill-point.
        for _ in 0..10 {
            assert_eq!(inj.on_write(), WriteFault::None);
        }
        inj.begin_day(1);
        assert_eq!(inj.on_write(), WriteFault::None);
        assert_eq!(inj.on_write(), WriteFault::Crashed);
    }

    #[test]
    fn armed_crash_does_not_shift_rate_class_decisions() {
        let run = |crash_at| {
            let p = FaultPlan {
                crash_at,
                ..plan(0.3, 0.3, 0.1)
            };
            let inj = FaultInjector::new(p);
            let mut log = Vec::new();
            for _ in 0..50 {
                log.push((inj.on_read(CellId(0), CellId(0)), inj.on_write()));
            }
            log
        };
        // A kill-point far beyond the op count leaves every rate-class
        // decision exactly where the unarmed plan put it.
        assert_eq!(run(None), run(Some((0, 1_000_000))));
    }

    #[test]
    fn torn_reads_truncate_to_half() {
        assert_eq!(tear(&[7u8; 10]), &[7u8; 5]);
        assert_eq!(tear(&[1u8]).len(), 0);
        assert_eq!(tear(&[]).len(), 0);
    }
}

//! The map-task scheduling engine: real compute, virtual time, real cores.
//!
//! Each split becomes one task. The engine list-schedules tasks onto the
//! cell's machines in queue order (earliest-free machine first), samples a
//! pre-emption budget for every attempt of a pre-emptible task, and actually
//! *calls the task's code*. The task advances its own virtual clock through
//! [`AttemptCtx::consume`]; when the budget runs out the task must abandon
//! the attempt (returning [`MapStatus::Preempted`]) and will be re-executed
//! later — typically resuming from a checkpoint it wrote to the DFS.
//!
//! # Workers
//!
//! Attempts of different splits are independent, so up to `workers` of them
//! run at once — on the calling thread and `workers - 1` scoped helper
//! threads — taking attempts in queue order as far ahead of the commit
//! point as the queue reaches. What an attempt *computes* happens on a
//! worker; what it *means* — [`JobStats`] bookkeeping, the machine and start
//! time it is given, its obs events and metric samples, the task's
//! [`MapTask::stage`] / [`MapTask::committed`] hooks, the retry it may
//! enqueue — is applied by the scheduling thread alone, one attempt at a
//! time, in the order attempts leave the FIFO queue. Three facts make that order the sequential engine's
//! order at every worker count (DESIGN.md §17):
//!
//! - the queue is FIFO and retries join it only at a commit, so the k-th
//!   attempt handed out is the k-th a one-worker engine would pop, and the
//!   k-th pre-emption budget drawn from the job's `StdRng` is its budget;
//! - an attempt never learns the machine or virtual start time it will be
//!   given: it runs on a clock that starts at zero and records into its own
//!   [`ObsLog`], which the commit replays at the assigned start and lane;
//! - a retry is enqueued by its predecessor's commit, so a split never has
//!   two attempts in flight and sees exactly its own checkpoint state.
//!
//! One input does depend on absolute time: a [`StormSchedule`] caps a budget
//! by where the attempt lands on the timeline. Under a non-empty schedule
//! the engine therefore hands out one attempt at a time, whatever `workers`
//! says. One worker is the same loop with no helpers and nothing handed
//! out ahead of the head of the line: no thread is spawned, and each
//! attempt is committed before the next one exists.

use crate::backoff::{BackoffPolicy, FlakyPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigmund_cluster::{CellSpec, CostMeter, PreemptionModel, Priority, StormSchedule};
use sigmund_obs::{Level, Obs, ObsLog, Track};
use sigmund_types::TaskId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a map attempt reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapStatus {
    /// The split completed.
    Done,
    /// The attempt was killed (budget exhausted); re-execute later.
    Preempted,
}

/// Virtual-time context handed to each map attempt: the pre-emption budget,
/// a clock that starts at zero when the attempt does, and the attempt's own
/// obs log. The attempt may be running ahead of earlier ones that have not
/// been committed yet, so neither its place on the job's timeline nor its
/// machine exists while it runs; the engine supplies both when it commits.
#[derive(Debug)]
pub struct AttemptCtx {
    /// 1-based attempt number for this split.
    pub attempt: u32,
    budget: f64,
    used: f64,
    log: ObsLog,
}

impl AttemptCtx {
    fn new(attempt: u32, budget: f64, log: ObsLog) -> Self {
        Self {
            attempt,
            budget,
            used: 0.0,
            log,
        }
    }

    /// Tries to spend `dt` virtual seconds. Returns `false` when the attempt
    /// is pre-empted partway through — the machine time up to the kill is
    /// still consumed, but the caller must stop working and return
    /// [`MapStatus::Preempted`] without saving state.
    pub fn consume(&mut self, dt: f64) -> bool {
        debug_assert!(dt >= 0.0);
        if self.used + dt > self.budget {
            self.used = self.budget;
            false
        } else {
            self.used += dt;
            true
        }
    }

    /// Virtual seconds consumed so far in this attempt — the attempt's
    /// clock, and the timestamp to give events recorded through
    /// [`Self::obs`].
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Remaining budget (infinite for production tasks).
    pub fn remaining(&self) -> f64 {
        self.budget - self.used
    }

    /// The attempt's obs log. Timestamps are on the attempt's clock
    /// ([`Self::used`]); the engine shifts them to the attempt's start and
    /// puts spans and instants on its machine lane when it commits the
    /// attempt. A task must record here and never on a shared [`Obs`]: it
    /// may be running on a worker thread, out of commit order.
    pub fn obs(&mut self) -> &mut ObsLog {
        &mut self.log
    }
}

/// A map task: user code plus scheduling metadata.
///
/// `run` may be called from several threads at once, for different splits,
/// and ahead of the commit of earlier attempts. It must therefore depend
/// only on its arguments and on state private to the split (its checkpoint,
/// its output path), record obs through `ctx`, and leave anything whose
/// *order* callers can see — an output list — to [`Self::committed`].
pub trait MapTask: Sync {
    /// Executes (or resumes) `split`, spending virtual time through `ctx`.
    fn run(&self, split: usize, ctx: &mut AttemptCtx) -> MapStatus;

    /// Estimated virtual seconds for the split (reporting only; the engine
    /// trusts `run`'s actual consumption).
    fn est_work(&self, split: usize) -> f64;

    /// Memory footprint of the split in GB.
    fn memory_gb(&self, _split: usize) -> f64 {
        4.0
    }

    /// Human-readable name for the split's attempt spans in the trace.
    fn label(&self, split: usize) -> String {
        format!("split {split}")
    }

    /// Called on the scheduling thread right before an attempt of `split`
    /// is handed out: the place to build what several splits share, so it
    /// is built once, by one thread, in hand-out order.
    fn stage(&self, _split: usize) {}

    /// Called on the scheduling thread when an attempt of `split` is
    /// committed, in the same order at every worker count: the place to
    /// publish what `run` produced.
    fn committed(&self, _split: usize, _status: MapStatus) {}
}

/// Job-level configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// The cell the job runs in.
    pub cell: CellSpec,
    /// Priority (pre-emptible for Sigmund's offline work).
    pub priority: Priority,
    /// Pre-emption hazard.
    pub preemption: PreemptionModel,
    /// Seed for pre-emption sampling.
    pub seed: u64,
    /// Abandon a split after this many attempts (`None` = retry forever).
    /// Production jobs should set this: a split whose minimum work unit
    /// exceeds every sampled budget would otherwise retry unboundedly.
    /// This matters doubly now that tasks report *persistent* failures
    /// (corrupt input, injected faults) as retryable: a config with
    /// `max_attempts: None` **and** `backoff: None` has no bound at all and
    /// will livelock on a split that can never succeed. Set a cap, a backoff
    /// budget, or both.
    pub max_attempts: Option<u32>,
    /// Exponential retry backoff charged to the virtual timeline. `None`
    /// preserves the historical immediate-requeue behavior exactly (retried
    /// splits re-enter the queue with no delay).
    pub backoff: Option<BackoffPolicy>,
    /// Correlated drain windows in absolute virtual time (storm mode). The
    /// empty schedule is a guaranteed no-op; a non-empty one makes the
    /// engine run one attempt at a time (see the module docs).
    pub storms: StormSchedule,
    /// Quarantine machines that keep killing attempts. `None` disables.
    pub flaky: Option<FlakyPolicy>,
}

/// Per-split scheduling outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitStats {
    /// The split index.
    pub split: usize,
    /// Attempts used.
    pub attempts: u32,
    /// Virtual machine-seconds consumed across attempts.
    pub cpu_seconds: f64,
    /// Virtual completion time.
    pub finish: f64,
}

/// Whole-job statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Virtual time the last split finished.
    pub makespan: f64,
    /// Metered cost of all machine time.
    pub cost: CostMeter,
    /// Total pre-emptions across splits.
    pub preemptions: u64,
    /// Per-split outcomes, by split index.
    pub per_split: Vec<SplitStats>,
    /// Virtual busy seconds per machine (load-balance diagnostics).
    pub machine_busy: Vec<f64>,
    /// Splits whose memory can never fit a machine (not executed).
    pub unschedulable: Vec<TaskId>,
    /// Splits abandoned after exhausting the retry budget.
    pub failed: Vec<TaskId>,
    /// Total virtual seconds of retry backoff charged to the timeline.
    pub backoff_seconds: f64,
    /// Machine quarantines triggered by the flaky policy.
    pub quarantines: u64,
}

impl JobStats {
    /// Max/mean machine busy-time ratio: 1.0 = perfectly balanced.
    pub fn load_imbalance(&self) -> f64 {
        let n = self.machine_busy.len();
        if n == 0 {
            return 1.0;
        }
        let max = self.machine_busy.iter().cloned().fold(0.0, f64::max);
        let mean: f64 = self.machine_busy.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Runs a map job over `n_splits` splits, executing the task's code for real
/// while accounting virtual time: [`run_map_job_obs`] with one worker and
/// tracing off.
pub fn run_map_job<T: MapTask>(task: &T, n_splits: usize, cfg: &JobConfig) -> JobStats {
    run_map_job_obs(task, n_splits, cfg, "map job", &Obs::disabled(), 0.0, 1)
}

/// Runs a map job with up to `workers` attempts computing at once, and with
/// tracing: per-attempt spans on the cell's machine lanes (cat `cluster`), a
/// job-level span on the cell's job lane (cat `mapreduce`),
/// preemption/abandon instants, and straggler/load-imbalance metrics. `t0`
/// is the job's virtual start time; `label` names the job span.
///
/// `workers` buys wall time and nothing else: the returned [`JobStats`],
/// everything recorded on `obs`, the order of [`MapTask::stage`] /
/// [`MapTask::committed`] calls and whatever a well-behaved task writes are
/// the same for every value. It is clamped to the cell's machines and the
/// split count, and to 1 under a non-empty [`JobConfig::storms`] schedule.
/// The calling thread is one of the workers, so `workers - 1` threads are
/// spawned — none at 1. A panic inside `task.run` is re-raised on the
/// calling thread.
pub fn run_map_job_obs<T: MapTask>(
    task: &T,
    n_splits: usize,
    cfg: &JobConfig,
    label: &str,
    obs: &Obs,
    t0: f64,
    workers: usize,
) -> JobStats {
    let mut sched = Scheduler::new(task, n_splits, cfg, obs, t0);
    let workers = if sched.storm_capped {
        1
    } else {
        workers.clamp(1, cfg.cell.machines.min(n_splits).max(1))
    };
    let pool = Pool::new(workers - 1);
    std::thread::scope(|s| {
        // Closes the queue when the scheduler is done *or unwinds*, so the
        // scope's implicit join never waits on an idle helper.
        let _close = CloseOnDrop(&pool);
        for _ in 0..pool.helpers {
            s.spawn(|| pool.help(task));
        }
        // Alone, the caller runs each attempt as it is handed out and
        // commits it before the next exists. With helpers, everything
        // pending is handed out at once: workers take attempts in ticket
        // order and a finished one just waits its turn, so a long attempt
        // at the head of the line never idles a core.
        sched.drive(&pool, if workers == 1 { 1 } else { usize::MAX });
    });
    sched.finish(label, n_splits)
}

/// One attempt as handed out by the scheduler: everything `task.run` gets,
/// plus the retry ready-time the commit needs.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    split: usize,
    attempt: u32,
    /// Earliest virtual start — 0.0 for first attempts and, with no backoff
    /// policy, for every retry (the historical immediate-requeue behavior).
    ready: f64,
    budget: f64,
}

/// What an attempt did, on its own clock.
#[derive(Debug)]
struct Outcome {
    attempt: Attempt,
    status: MapStatus,
    used: f64,
    log: ObsLog,
}

/// A handed-out attempt waiting for a worker. Tickets count attempts in
/// hand-out order, which is commit order.
struct Job {
    ticket: usize,
    attempt: Attempt,
    log: ObsLog,
}

impl Job {
    fn execute<T: MapTask>(self, task: &T) -> Outcome {
        let mut ctx = AttemptCtx::new(self.attempt.attempt, self.attempt.budget, self.log);
        let status = task.run(self.attempt.split, &mut ctx);
        Outcome {
            attempt: self.attempt,
            status,
            used: ctx.used,
            log: ctx.log,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every critical section below is a queue push/pop or a map
    // insert/remove: a panic cannot leave the state half-updated.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where the scheduling thread and its helper threads meet: attempts go out
/// in ticket order, results come back in whatever order they finish and
/// wait for their turn.
struct Pool {
    helpers: usize,
    state: Mutex<PoolState>,
    /// Helpers sleep here until a job is queued or the queue closes.
    work: Condvar,
    /// The scheduler sleeps here until a helper delivers a result.
    done: Condvar,
}

#[derive(Default)]
struct PoolState {
    jobs: VecDeque<Job>,
    /// Attempts finished ahead of their turn; `Err` is a panic payload.
    results: BTreeMap<usize, std::thread::Result<Outcome>>,
    closed: bool,
}

/// What the scheduling thread should do next.
enum Next {
    /// The attempt at the head of the line has finished.
    Commit(std::thread::Result<Outcome>),
    /// It has not, and this attempt is waiting for a worker: be one.
    Run(Job),
}

struct CloseOnDrop<'p>(&'p Pool);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).closed = true;
        self.0.work.notify_all();
    }
}

impl Pool {
    fn new(helpers: usize) -> Self {
        Self {
            helpers,
            state: Mutex::default(),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn submit(&self, job: Job) {
        lock(&self.state).jobs.push_back(job);
        if self.helpers > 0 {
            self.work.notify_one();
        }
    }

    fn deliver(&self, ticket: usize, result: std::thread::Result<Outcome>) {
        lock(&self.state).results.insert(ticket, result);
    }

    /// Blocks until attempt `head` has a result or some attempt needs a
    /// worker. Only called with `head` handed out and uncommitted, so one
    /// of the two always comes: `head` is queued, running or finished.
    fn next(&self, head: usize) -> Next {
        let mut st = lock(&self.state);
        loop {
            if let Some(result) = st.results.remove(&head) {
                return Next::Commit(result);
            }
            if let Some(job) = st.jobs.pop_front() {
                return Next::Run(job);
            }
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A helper thread's life: run queued attempts until the queue closes.
    fn help<T: MapTask>(&self, task: &T) {
        loop {
            let mut st = lock(&self.state);
            let job = loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if st.closed {
                    return;
                }
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            };
            drop(st);
            let ticket = job.ticket;
            // A panicking task must not strand the scheduler in `next`: the
            // payload travels back as this attempt's result.
            let result = catch_unwind(AssertUnwindSafe(|| job.execute(task)));
            self.deliver(ticket, result);
            self.done.notify_one();
        }
    }
}

/// Machine-free times are kept as integer nanoseconds (a total order for
/// the heap); an attempt starts when its machine is free and its backoff
/// has run out.
fn start_time(free_ns: u64, ready: f64) -> f64 {
    (free_ns as f64 / 1e9).max(ready)
}

/// The sequential heart of the engine: hands attempts out in queue order
/// and applies their outcomes in the same order.
struct Scheduler<'a, T> {
    task: &'a T,
    cfg: &'a JobConfig,
    obs: &'a Obs,
    t0: f64,
    cell_id: u32,
    /// Budgets depend on absolute start times (storm mode).
    storm_capped: bool,
    rng: StdRng,
    /// Machines become free at these times (min-heap on nanoseconds).
    free_at: BinaryHeap<Reverse<(u64, usize)>>,
    /// (split, attempt, ready) — FIFO; retries join at the back.
    pending: VecDeque<(usize, u32, f64)>,
    stats: Vec<SplitStats>,
    machine_busy: Vec<f64>,
    cost: CostMeter,
    preemptions: u64,
    makespan: f64,
    unschedulable: Vec<TaskId>,
    failed: Vec<TaskId>,
    backoff_spent: Vec<f64>,
    backoff_total: f64,
    machine_preempts: Vec<u32>,
    quarantines: u64,
}

impl<'a, T: MapTask> Scheduler<'a, T> {
    fn new(task: &'a T, n_splits: usize, cfg: &'a JobConfig, obs: &'a Obs, t0: f64) -> Self {
        let n_machines = cfg.cell.machines;
        assert!(n_machines > 0, "cell has no machines");
        let cell_id = cfg.cell.cell.0;
        let mut unschedulable = Vec::new();
        // Reject splits that can never fit.
        let pending = (0..n_splits)
            .filter(|&s| {
                let fits = task.memory_gb(s) <= cfg.cell.machine.memory_gb;
                if !fits {
                    unschedulable.push(TaskId::from_index(s));
                    obs.instant(
                        Level::Warn,
                        "mapreduce",
                        "unschedulable split",
                        Track::job(cell_id),
                        t0,
                        &[("split", s.into()), ("memory_gb", task.memory_gb(s).into())],
                    );
                }
                fits
            })
            .map(|s| (s, 1, 0.0))
            .collect();
        Self {
            task,
            cfg,
            obs,
            t0,
            cell_id,
            storm_capped: cfg.priority == Priority::Preemptible && !cfg.storms.is_empty(),
            rng: StdRng::seed_from_u64(cfg.seed),
            free_at: (0..n_machines).map(|m| Reverse((0u64, m))).collect(),
            pending,
            stats: (0..n_splits)
                .map(|split| SplitStats {
                    split,
                    attempts: 0,
                    cpu_seconds: 0.0,
                    finish: 0.0,
                })
                .collect(),
            machine_busy: vec![0.0; n_machines],
            cost: CostMeter::default(),
            preemptions: 0,
            makespan: 0.0,
            unschedulable,
            failed: Vec::new(),
            backoff_spent: vec![0.0; n_splits],
            backoff_total: 0.0,
            machine_preempts: vec![0; n_machines],
            quarantines: 0,
        }
    }

    /// Hands out up to `look_ahead` uncommitted attempts in queue order,
    /// works on them alongside the pool's helpers, and commits them in
    /// hand-out order.
    fn drive(&mut self, pool: &Pool, look_ahead: usize) {
        // Tickets: `committed..handed_out` are out and uncommitted, and
        // `committed` is the head of the line.
        let (mut handed_out, mut committed) = (0usize, 0usize);
        loop {
            while handed_out - committed < look_ahead {
                let Some(attempt) = self.dispatch() else {
                    break;
                };
                self.task.stage(attempt.split);
                pool.submit(Job {
                    ticket: handed_out,
                    attempt,
                    log: self.obs.log(),
                });
                handed_out += 1;
            }
            if committed == handed_out {
                return;
            }
            let result = match pool.next(committed) {
                Next::Commit(result) => result,
                Next::Run(job) if job.ticket == committed => Ok(job.execute(self.task)),
                Next::Run(job) => {
                    let ticket = job.ticket;
                    pool.deliver(ticket, Ok(job.execute(self.task)));
                    continue;
                }
            };
            committed += 1;
            self.commit(result.unwrap_or_else(|payload| resume_unwind(payload)));
        }
    }

    /// Pops the next attempt and draws its pre-emption budget. Attempts
    /// leave in FIFO order, so the k-th draw belongs to the k-th attempt
    /// whether or not earlier ones have been committed yet.
    fn dispatch(&mut self) -> Option<Attempt> {
        let (split, attempt, ready) = self.pending.pop_front()?;
        let mut budget = self
            .cfg
            .preemption
            .sample(self.cfg.priority, &mut self.rng)
            .unwrap_or(f64::INFINITY);
        if self.storm_capped {
            // One attempt at a time here, so everything before this one is
            // committed and the head of the heap is the machine it will get.
            let free_ns = self.free_at.peek().map_or(0, |Reverse((ns, _))| *ns);
            budget = self
                .cfg
                .storms
                .cap(self.t0 + start_time(free_ns, ready), budget);
        }
        Some(Attempt {
            split,
            attempt,
            ready,
            budget,
        })
    }

    /// Applies one finished attempt: gives it the earliest-free machine,
    /// books its time, replays its obs log there, and decides the retry.
    fn commit(&mut self, out: Outcome) {
        let Attempt {
            split,
            attempt,
            ready,
            ..
        } = out.attempt;
        let (cfg, obs, t0) = (self.cfg, self.obs, self.t0);
        #[allow(clippy::expect_used)]
        // xtask: allow(panic-surface) — heap holds exactly n_machines entries (asserted > 0) and every pop is re-pushed below
        let Reverse((free_ns, machine)) = self.free_at.pop().expect("at least one machine");
        // A retry waits out its backoff even if a machine is idle sooner;
        // `ready` is 0.0 everywhere when no backoff policy is set, making
        // `max` the identity on the machine-free time.
        let now = start_time(free_ns, ready);
        let track = Track::machine(self.cell_id, machine as u32);
        let elapsed = out.used;
        let st = &mut self.stats[split];
        st.attempts = attempt;
        st.cpu_seconds += elapsed;
        self.machine_busy[machine] += elapsed;
        self.cost.charge(cfg.priority, elapsed);
        let end = now + elapsed;
        let mut machine_free = end;
        if obs.is_enabled() {
            // What the task recorded while running comes first, as it did
            // when tasks wrote to the shared handle directly.
            obs.absorb(out.log, t0 + now, track);
            obs.span(
                Level::Debug,
                "cluster",
                &self.task.label(split),
                track,
                t0 + now,
                t0 + end,
                &[
                    ("split", split.into()),
                    ("attempt", attempt.into()),
                    (
                        "status",
                        match out.status {
                            MapStatus::Done => "done",
                            MapStatus::Preempted => "preempted",
                        }
                        .into(),
                    ),
                ],
            );
        }
        match out.status {
            MapStatus::Done => {
                st.finish = end;
                self.makespan = self.makespan.max(end);
                obs.counter("mapreduce.splits_done", 1);
                obs.histogram("mapreduce.split_attempts", f64::from(attempt));
                obs.histogram("mapreduce.split_cpu_seconds", st.cpu_seconds);
            }
            MapStatus::Preempted => {
                self.preemptions += 1;
                self.machine_preempts[machine] += 1;
                obs.counter("mapreduce.preemptions", 1);
                obs.instant(
                    Level::Debug,
                    "cluster",
                    "preempt",
                    track,
                    t0 + end,
                    &[("split", split.into()), ("attempt", attempt.into())],
                );
                if let Some(f) = &cfg.flaky {
                    if self.machine_preempts[machine] >= f.threshold {
                        self.machine_preempts[machine] = 0;
                        machine_free = end + f.quarantine_s;
                        self.quarantines += 1;
                        obs.counter("mapreduce.quarantines", 1);
                        obs.instant(
                            Level::Warn,
                            "mapreduce",
                            "machine quarantined",
                            track,
                            t0 + end,
                            &[
                                ("machine", machine.into()),
                                ("quarantine_s", f.quarantine_s.into()),
                            ],
                        );
                    }
                }
                // Decide the split's fate: attempts-cap backstop first, then
                // the backoff budget (the primary give-up mechanism when a
                // policy is set).
                let capped = cfg.max_attempts.is_some_and(|cap| attempt >= cap);
                let mut abandon_reason = if capped { Some("attempts cap") } else { None };
                let mut next_ready = 0.0f64;
                if !capped {
                    if let Some(b) = &cfg.backoff {
                        let delay = b.delay(cfg.seed, split, attempt + 1);
                        if self.backoff_spent[split] + delay > b.budget {
                            abandon_reason = Some("backoff budget");
                        } else {
                            self.backoff_spent[split] += delay;
                            self.backoff_total += delay;
                            next_ready = end + delay;
                            obs.counter("mapreduce.backoff_retries", 1);
                            obs.histogram("mapreduce.backoff_delay_s", delay);
                        }
                    }
                }
                if let Some(reason) = abandon_reason {
                    self.failed.push(TaskId::from_index(split));
                    obs.counter("mapreduce.failed_splits", 1);
                    obs.instant(
                        Level::Error,
                        "mapreduce",
                        "split abandoned",
                        Track::job(self.cell_id),
                        t0 + end,
                        &[
                            ("split", split.into()),
                            ("attempts", attempt.into()),
                            ("reason", reason.into()),
                        ],
                    );
                } else {
                    self.pending.push_back((split, attempt + 1, next_ready));
                }
            }
        }
        self.free_at
            .push(Reverse(((machine_free * 1e9).round() as u64, machine)));
        self.task.committed(split, out.status);
    }

    fn finish(self, label: &str, n_splits: usize) -> JobStats {
        let (obs, t0) = (self.obs, self.t0);
        let out = JobStats {
            makespan: self.makespan,
            cost: self.cost,
            preemptions: self.preemptions,
            per_split: self.stats,
            machine_busy: self.machine_busy,
            unschedulable: self.unschedulable,
            failed: self.failed,
            backoff_seconds: self.backoff_total,
            quarantines: self.quarantines,
        };
        if obs.is_enabled() {
            let done_cpu: Vec<f64> = out
                .per_split
                .iter()
                .filter(|s| s.cpu_seconds > 0.0)
                .map(|s| s.cpu_seconds)
                .collect();
            let straggler = if done_cpu.is_empty() {
                1.0
            } else {
                let max = done_cpu.iter().cloned().fold(0.0, f64::max);
                max / (done_cpu.iter().sum::<f64>() / done_cpu.len() as f64)
            };
            obs.span(
                Level::Info,
                "mapreduce",
                label,
                Track::job(self.cell_id),
                t0,
                t0 + out.makespan,
                &[
                    ("splits", n_splits.into()),
                    ("preemptions", out.preemptions.into()),
                    ("failed", out.failed.len().into()),
                    ("load_imbalance", out.load_imbalance().into()),
                    ("straggler_ratio", straggler.into()),
                ],
            );
            obs.gauge(
                "mapreduce.load_imbalance",
                t0 + out.makespan,
                out.load_imbalance(),
            );
            obs.gauge("mapreduce.straggler_ratio", t0 + out.makespan, straggler);
            obs.counter("mapreduce.jobs", 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_types::CellId;

    /// A fake task: fixed work per split, optional checkpoint interval.
    /// Progress is remembered across attempts when `resume` is true — the
    /// stand-in for reloading a DFS checkpoint.
    struct Fake {
        work: Vec<f64>,
        chunk: f64,
        checkpoint_every: u64,
        resume: bool,
        progress: parking_lot_free_progress::Progress,
        /// `committed` calls, in call order.
        commits: std::sync::Mutex<Vec<(usize, MapStatus)>>,
    }

    /// Tiny interior-mutability helper (std only).
    mod parking_lot_free_progress {
        use std::sync::Mutex;
        #[derive(Default)]
        pub struct Progress(Mutex<std::collections::HashMap<usize, f64>>);
        impl Progress {
            pub fn get(&self, s: usize) -> f64 {
                *self.0.lock().unwrap().get(&s).unwrap_or(&0.0)
            }
            pub fn set(&self, s: usize, v: f64) {
                self.0.lock().unwrap().insert(s, v);
            }
        }
    }

    impl Fake {
        fn new(work: Vec<f64>) -> Self {
            Self {
                work,
                chunk: 1.0,
                checkpoint_every: 1,
                resume: true,
                progress: Default::default(),
                commits: Default::default(),
            }
        }
    }

    impl MapTask for Fake {
        fn run(&self, split: usize, ctx: &mut AttemptCtx) -> MapStatus {
            let total = self.work[split];
            let mut done = if self.resume {
                self.progress.get(split)
            } else {
                0.0
            };
            let mut chunks_since_ckpt = 0u64;
            ctx.obs().counter("fake.attempts", 1);
            while done < total {
                let step = self.chunk.min(total - done);
                let chunk_start = ctx.used();
                if !ctx.consume(step) {
                    return MapStatus::Preempted;
                }
                done += step;
                chunks_since_ckpt += 1;
                if chunks_since_ckpt >= self.checkpoint_every {
                    self.progress.set(split, done); // "write checkpoint"
                    chunks_since_ckpt = 0;
                    let now = ctx.used();
                    let name = format!("chunk of {split}");
                    ctx.obs()
                        .span(Level::Debug, "fake", &name, chunk_start, now, &[]);
                    // Thirds do not sum associatively: a replay that
                    // reordered samples would change the rendered mean.
                    ctx.obs().histogram("fake.done_thirds", done / 3.0);
                }
            }
            self.progress.set(split, total);
            let now = ctx.used();
            ctx.obs().instant(
                Level::Info,
                "fake",
                "finished",
                now,
                &[("split", split.into())],
            );
            ctx.obs().gauge("fake.split_seconds", now, now);
            MapStatus::Done
        }

        fn committed(&self, split: usize, status: MapStatus) {
            self.commits.lock().unwrap().push((split, status));
        }

        fn est_work(&self, split: usize) -> f64 {
            self.work[split]
        }
    }

    fn cfg(machines: usize, rate: f64, seed: u64) -> JobConfig {
        JobConfig {
            cell: CellSpec::standard(CellId(0), machines),
            priority: Priority::Preemptible,
            preemption: PreemptionModel {
                rate_per_hour: rate,
            },
            seed,
            max_attempts: None,
            backoff: None,
            storms: StormSchedule::none(),
            flaky: None,
        }
    }

    #[test]
    fn no_preemption_makespan_is_list_schedule() {
        let task = Fake::new(vec![10.0, 20.0, 30.0]);
        let stats = run_map_job(&task, 3, &cfg(1, 0.0, 1));
        assert!((stats.makespan - 60.0).abs() < 1e-6);
        let stats2 = run_map_job(&Fake::new(vec![10.0, 20.0, 30.0]), 3, &cfg(3, 0.0, 1));
        assert!((stats2.makespan - 30.0).abs() < 1e-6);
        assert_eq!(stats.preemptions, 0);
        assert!(stats.per_split.iter().all(|s| s.attempts == 1));
    }

    #[test]
    fn preempted_attempts_retry_and_finish() {
        // Huge hazard: ~1 pre-emption per 36 virtual seconds.
        let task = Fake::new(vec![100.0, 100.0]);
        let stats = run_map_job(&task, 2, &cfg(2, 100.0, 7));
        assert!(stats.preemptions > 0, "hazard should trigger retries");
        assert!(stats.per_split.iter().all(|s| s.finish > 0.0));
        // Checkpoint-resumed: total useful work is bounded, so CPU time is
        // work + lost tails, well under a from-scratch blowup.
        for s in &stats.per_split {
            assert!(s.cpu_seconds >= 100.0);
        }
    }

    #[test]
    fn resume_beats_restart() {
        let run = |resume: bool| {
            let mut task = Fake::new(vec![200.0]);
            task.resume = resume;
            run_map_job(&task, 1, &cfg(1, 60.0, 99)).per_split[0].cpu_seconds
        };
        let with_ckpt = run(true);
        let without = run(false);
        assert!(
            with_ckpt < without,
            "checkpoint resume {with_ckpt} must beat restart {without}"
        );
    }

    #[test]
    fn production_priority_never_preempts() {
        let task = Fake::new(vec![50.0; 4]);
        let mut c = cfg(2, 1000.0, 3);
        c.priority = Priority::Production;
        let stats = run_map_job(&task, 4, &c);
        assert_eq!(stats.preemptions, 0);
        assert!(stats.cost.production_cpu_s > 0.0);
        assert_eq!(stats.cost.preemptible_cpu_s, 0.0);
    }

    #[test]
    fn oversized_split_reported_unschedulable() {
        struct Big;
        impl MapTask for Big {
            fn run(&self, _: usize, ctx: &mut AttemptCtx) -> MapStatus {
                ctx.consume(1.0);
                MapStatus::Done
            }
            fn est_work(&self, _: usize) -> f64 {
                1.0
            }
            fn memory_gb(&self, split: usize) -> f64 {
                if split == 0 {
                    1000.0
                } else {
                    1.0
                }
            }
        }
        let stats = run_map_job(&Big, 2, &cfg(1, 0.0, 1));
        assert_eq!(stats.unschedulable, vec![TaskId(0)]);
        assert_eq!(stats.per_split[0].attempts, 0);
        assert_eq!(stats.per_split[1].attempts, 1);
    }

    #[test]
    fn machine_busy_and_imbalance() {
        // One long split and three short ones on two machines.
        let task = Fake::new(vec![90.0, 10.0, 10.0, 10.0]);
        let stats = run_map_job(&task, 4, &cfg(2, 0.0, 1));
        let total: f64 = stats.machine_busy.iter().sum();
        assert!((total - 120.0).abs() < 1e-6);
        assert!(stats.load_imbalance() >= 1.0);
    }

    #[test]
    fn attempt_ctx_budget_semantics() {
        let mut ctx = AttemptCtx::new(1, 5.0, Obs::disabled().log());
        assert!(ctx.consume(3.0));
        assert_eq!(ctx.used(), 3.0);
        assert!((ctx.remaining() - 2.0).abs() < 1e-12);
        assert!(!ctx.consume(3.0), "exceeds budget");
        assert_eq!(ctx.used(), 5.0, "machine time runs to the kill point");
        assert!(!ctx.obs().is_enabled());
    }

    #[test]
    fn obs_records_attempt_and_job_spans() {
        let task = Fake::new(vec![10.0, 20.0]);
        let obs = Obs::recording(Level::Debug);
        let stats = run_map_job_obs(&task, 2, &cfg(2, 0.0, 1), "unit job", &obs, 5.0, 1);
        assert_eq!(stats.preemptions, 0);
        let trace = obs.trace_json();
        assert!(trace.contains("\"cat\":\"cluster\""), "{trace}");
        assert!(trace.contains("\"cat\":\"mapreduce\""), "{trace}");
        assert!(trace.contains("unit job"), "{trace}");
        assert!(trace.contains("split 1"), "{trace}");
        // Job span starts at t0 = 5 s.
        assert!(trace.contains("\"ts\":5000000"), "{trace}");
        let metrics = obs.metrics_jsonl();
        assert!(metrics.contains("mapreduce.splits_done"), "{metrics}");
        assert!(metrics.contains("mapreduce.load_imbalance"), "{metrics}");
        // The disabled path records nothing but computes the same stats.
        let silent = run_map_job(&Fake::new(vec![10.0, 20.0]), 2, &cfg(2, 0.0, 1));
        assert_eq!(silent.makespan, stats.makespan);
    }

    #[test]
    fn preemptions_show_up_in_trace_and_counters() {
        let task = Fake::new(vec![100.0, 100.0]);
        let obs = Obs::recording(Level::Debug);
        let stats = run_map_job_obs(&task, 2, &cfg(2, 100.0, 7), "hazard job", &obs, 0.0, 1);
        assert!(stats.preemptions > 0);
        assert!(obs.trace_json().contains("\"name\":\"preempt\""));
        assert_eq!(
            obs.metrics().map(|m| m.counter("mapreduce.preemptions")),
            Some(stats.preemptions)
        );
    }

    #[test]
    fn retry_cap_abandons_unfinishable_splits() {
        // A split that never checkpoints and has huge work: under an extreme
        // hazard (mean budget ~0.036 s vs 1000 s of work) it can never
        // finish; the cap must end the job instead of looping forever.
        let mut task = Fake::new(vec![1000.0, 0.01]);
        task.resume = false;
        let mut c = cfg(1, 100_000.0, 3);
        c.max_attempts = Some(25);
        let stats = run_map_job(&task, 2, &c);
        assert_eq!(stats.failed, vec![TaskId(0)]);
        assert!(
            stats.per_split[1].finish > 0.0,
            "small split still completes"
        );
        assert!(stats.preemptions >= 25);
    }

    #[test]
    fn empty_job() {
        let task = Fake::new(vec![]);
        let stats = run_map_job(&task, 0, &cfg(2, 0.0, 1));
        assert_eq!(stats.makespan, 0.0);
        assert!(stats.per_split.is_empty());
    }

    #[test]
    fn backoff_charges_delays_to_the_timeline() {
        // One split on one machine: every retry delay sits on the critical
        // path, so the backed-off makespan must be the plain makespan plus
        // exactly the charged backoff seconds (the kill-budget RNG stream is
        // identical in both runs).
        let plain = run_map_job(&Fake::new(vec![200.0]), 1, &cfg(1, 100.0, 7));
        let mut c = cfg(1, 100.0, 7);
        c.backoff = Some(BackoffPolicy::gentle());
        let backed = run_map_job(&Fake::new(vec![200.0]), 1, &c);
        assert!(plain.preemptions > 0, "hazard must trigger retries");
        assert_eq!(plain.backoff_seconds, 0.0);
        assert!(backed.backoff_seconds > 0.0);
        assert!(
            (backed.makespan - (plain.makespan + backed.backoff_seconds)).abs() < 1e-6,
            "delays must land on the critical path: {} vs {} (+{})",
            backed.makespan,
            plain.makespan,
            backed.backoff_seconds
        );
        assert!(backed.per_split[0].finish > 0.0);
    }

    #[test]
    fn backoff_budget_abandons_splits_without_attempt_caps() {
        // Zero-budget storm forever: no attempt makes progress, and the
        // backoff budget (not max_attempts, which is None) ends the retries.
        let mut task = Fake::new(vec![50.0]);
        task.resume = false;
        let mut c = cfg(1, 0.0, 3);
        c.storms = StormSchedule::single(0.0, f64::INFINITY);
        c.backoff = Some(BackoffPolicy {
            base: 1.0,
            multiplier: 2.0,
            cap: 16.0,
            budget: 40.0,
        });
        let stats = run_map_job(&task, 1, &c);
        assert_eq!(stats.failed, vec![TaskId(0)]);
        assert!(stats.backoff_seconds <= 40.0);
        assert!(stats.preemptions > 1);
    }

    #[test]
    fn storm_window_kills_and_delays_attempts() {
        // One 10 s split, one machine, drain window [5, 100): the first
        // attempt starts at 0 and is truncated at the window edge.
        let task = Fake::new(vec![10.0]);
        let mut c = cfg(1, 0.0, 1);
        c.storms = StormSchedule::single(5.0, 100.0);
        c.backoff = Some(BackoffPolicy {
            base: 200.0, // first retry lands past the window
            multiplier: 1.0,
            cap: 200.0,
            budget: 1e6,
        });
        let stats = run_map_job(&task, 1, &c);
        assert!(stats.preemptions >= 1, "window must kill the first attempt");
        assert!(
            stats.per_split[0].finish > 100.0,
            "split can only finish after the window: {}",
            stats.per_split[0].finish
        );
        // Production priority ignores storms entirely.
        let mut p = cfg(1, 0.0, 1);
        p.storms = StormSchedule::single(0.0, f64::INFINITY);
        p.priority = Priority::Production;
        let prod = run_map_job(&Fake::new(vec![10.0]), 1, &p);
        assert_eq!(prod.preemptions, 0);
        assert!((prod.makespan - 10.0).abs() < 1e-6);
    }

    #[test]
    fn flaky_policy_quarantines_hot_machines() {
        let mut task = Fake::new(vec![1000.0]);
        task.resume = false;
        let mut c = cfg(1, 100_000.0, 3);
        c.max_attempts = Some(25);
        c.flaky = Some(FlakyPolicy {
            threshold: 5,
            quarantine_s: 50.0,
        });
        let stats = run_map_job(&task, 1, &c);
        assert!(
            stats.quarantines >= 1,
            "repeat kills must trigger quarantine"
        );
        // No policy → no quarantines, everything else equal.
        let mut task2 = Fake::new(vec![1000.0]);
        task2.resume = false;
        let mut c2 = cfg(1, 100_000.0, 3);
        c2.max_attempts = Some(25);
        let plain = run_map_job(&task2, 1, &c2);
        assert_eq!(plain.quarantines, 0);
        assert_eq!(plain.preemptions, stats.preemptions);
    }

    #[test]
    fn disabled_chaos_knobs_change_nothing() {
        // backoff: None + empty storms + flaky: None must reproduce the
        // historical schedule bit-for-bit (same spans, same stats).
        let run = |chaosy: bool| {
            let obs = Obs::recording(Level::Debug);
            let mut c = cfg(2, 100.0, 7);
            if chaosy {
                c.backoff = None;
                c.storms = StormSchedule::none();
                c.flaky = None;
            }
            let stats = run_map_job_obs(&Fake::new(vec![40.0, 60.0]), 2, &c, "j", &obs, 0.0, 1);
            (stats, obs.trace_json(), obs.metrics_jsonl())
        };
        let (a_stats, a_trace, a_metrics) = run(false);
        let (b_stats, b_trace, b_metrics) = run(true);
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_trace, b_trace);
        assert_eq!(a_metrics, b_metrics);
    }

    /// Everything a caller can observe of one job.
    type Observed = (JobStats, String, String, Vec<(usize, MapStatus)>);

    fn observe(task: Fake, c: &JobConfig, workers: usize) -> Observed {
        let obs = Obs::recording(Level::Debug);
        let stats = run_map_job_obs(&task, task.work.len(), c, "job", &obs, 7.5, workers);
        let commits = task.commits.into_inner().unwrap();
        (stats, obs.trace_json(), obs.metrics_jsonl(), commits)
    }

    /// Ten uneven splits that resume from their checkpoints.
    fn resuming() -> Fake {
        Fake::new(vec![
            30.0, 5.0, 80.0, 12.5, 44.0, 3.0, 61.0, 19.0, 27.0, 8.0,
        ])
    }

    /// The same splits restarting from scratch on every attempt.
    fn restarting() -> Fake {
        let mut t = resuming();
        t.resume = false;
        t
    }

    /// A hazard configuration on three machines, and the task it runs.
    struct Scenario {
        name: &'static str,
        task: fn() -> Fake,
        cfg: JobConfig,
    }

    fn scenarios() -> Vec<Scenario> {
        let mut capped = cfg(3, 3_000.0, 5);
        capped.max_attempts = Some(6);
        let mut backed = cfg(3, 300.0, 11);
        backed.backoff = Some(BackoffPolicy {
            base: 2.0,
            multiplier: 2.0,
            cap: 30.0,
            budget: 45.0,
        });
        let mut flaky = cfg(3, 2_000.0, 13);
        flaky.max_attempts = Some(40);
        flaky.flaky = Some(FlakyPolicy {
            threshold: 3,
            quarantine_s: 25.0,
        });
        let scenario = |name, task, cfg| Scenario { name, task, cfg };
        vec![
            scenario("clean", resuming, cfg(3, 0.0, 1)),
            scenario("pre-emption", resuming, cfg(3, 400.0, 7)),
            scenario("attempts cap", restarting, capped),
            scenario("backoff", resuming, backed),
            scenario("flaky quarantine", restarting, flaky),
        ]
    }

    #[test]
    fn stats_trace_metrics_and_commit_order_are_worker_count_invariant() {
        for Scenario { name, task, cfg: c } in scenarios() {
            let serial = observe(task(), &c, 1);
            if name != "clean" {
                assert!(serial.0.preemptions > 0, "{name}: hazard should bite");
            }
            if name == "attempts cap" {
                assert!(!serial.0.failed.is_empty(), "{name}: cap should abandon");
            }
            if name == "backoff" {
                assert!(serial.0.backoff_seconds > 0.0, "{name}");
            }
            if name == "flaky quarantine" {
                assert!(serial.0.quarantines > 0, "{name}");
            }
            assert!(
                serial.1.contains("chunk of 3"),
                "{name}: task spans recorded"
            );
            for workers in [2, 3, 8, 64] {
                let pooled = observe(task(), &c, workers);
                assert_eq!(serial.0, pooled.0, "{name}: JobStats at {workers} workers");
                assert_eq!(serial.1, pooled.1, "{name}: trace at {workers} workers");
                assert_eq!(serial.2, pooled.2, "{name}: metrics at {workers} workers");
                assert_eq!(serial.3, pooled.3, "{name}: commits at {workers} workers");
            }
        }
    }

    #[test]
    fn one_worker_is_run_map_job() {
        // `run_map_job` is the same engine at one worker with tracing off.
        for Scenario { name, task, cfg: c } in scenarios() {
            let t = task();
            let plain = run_map_job(&t, t.work.len(), &c);
            assert_eq!(plain, observe(task(), &c, 1).0, "{name}");
            assert_eq!(plain, observe(task(), &c, 3).0, "{name}");
        }
    }

    /// Counts how many attempts are inside `run` at once.
    #[derive(Default)]
    struct Crowd {
        inside: std::sync::Mutex<(usize, usize)>, // (now, peak)
        arrived: std::sync::Condvar,
        /// Hold every attempt until this many are inside together.
        meet: usize,
    }

    impl MapTask for Crowd {
        fn run(&self, _: usize, ctx: &mut AttemptCtx) -> MapStatus {
            let mut g = self.inside.lock().unwrap();
            g.0 += 1;
            g.1 = g.1.max(g.0);
            self.arrived.notify_all();
            while g.1 < self.meet {
                let (next, timeout) = self
                    .arrived
                    .wait_timeout(g, std::time::Duration::from_secs(30))
                    .unwrap();
                assert!(!timeout.timed_out(), "attempts never overlapped");
                g = next;
            }
            g.0 -= 1;
            drop(g);
            if ctx.consume(10.0) {
                MapStatus::Done
            } else {
                MapStatus::Preempted
            }
        }
        fn est_work(&self, _: usize) -> f64 {
            10.0
        }
    }

    #[test]
    fn workers_really_overlap_and_storms_serialize_them() {
        // Three workers: each attempt waits inside `run` until three are
        // there together, so the job only finishes if the pool overlaps
        // them.
        let crowd = Crowd {
            meet: 3,
            ..Default::default()
        };
        run_map_job_obs(&crowd, 6, &cfg(4, 0.0, 1), "j", &Obs::disabled(), 0.0, 3);
        assert_eq!(crowd.inside.lock().unwrap().1, 3);
        // Workers are clamped to the cell's machines and the split count.
        for (machines, splits) in [(2, 6), (4, 2)] {
            let crowd = Crowd {
                meet: 2,
                ..Default::default()
            };
            let c = cfg(machines, 0.0, 1);
            run_map_job_obs(&crowd, splits, &c, "j", &Obs::disabled(), 0.0, 8);
            assert_eq!(crowd.inside.lock().unwrap().1, 2);
        }
        // A storm schedule reads absolute time: one attempt at a time, and
        // any requested count gives the serial result.
        let mut stormy = cfg(3, 300.0, 9);
        stormy.storms = StormSchedule::single(40.0, 90.0);
        stormy.backoff = Some(BackoffPolicy::gentle());
        let crowd = Crowd::default();
        run_map_job_obs(&crowd, 6, &stormy, "j", &Obs::disabled(), 0.0, 8);
        assert_eq!(
            crowd.inside.lock().unwrap().1,
            1,
            "storms force one attempt at a time"
        );
        let serial = observe(resuming(), &stormy, 1);
        assert!(
            serial.0.preemptions > 0,
            "the drain window should kill attempts"
        );
        for workers in [2, 3, 8] {
            assert_eq!(
                serial,
                observe(resuming(), &stormy, workers),
                "{workers} workers"
            );
        }
    }

    /// Two splits that record one instant each — through `ctx` when
    /// `shared` is `None`, straight onto a shared handle otherwise (the bug
    /// the attempt-local log exists to prevent). With `rendezvous`, split 0
    /// records only after split 1 has, which a pool allows and a serial
    /// engine cannot.
    struct Recorder {
        shared: Option<Obs>,
        rendezvous: bool,
        split_1_recorded: std::sync::Mutex<bool>,
        recorded: std::sync::Condvar,
    }

    impl MapTask for Recorder {
        fn run(&self, split: usize, ctx: &mut AttemptCtx) -> MapStatus {
            ctx.consume(4.0);
            if split == 0 && self.rendezvous {
                let mut seen = self.split_1_recorded.lock().unwrap();
                while !*seen {
                    let (next, timeout) = self
                        .recorded
                        .wait_timeout(seen, std::time::Duration::from_secs(30))
                        .unwrap();
                    assert!(!timeout.timed_out(), "split 1 never ran beside split 0");
                    seen = next;
                }
            }
            let name = format!("mark {split}");
            match &self.shared {
                Some(obs) => obs.instant(Level::Info, "t", &name, Track::PIPELINE, ctx.used(), &[]),
                None => {
                    let now = ctx.used();
                    ctx.obs().instant(Level::Info, "t", &name, now, &[]);
                }
            }
            if split == 1 {
                *self.split_1_recorded.lock().unwrap() = true;
                self.recorded.notify_all();
            }
            MapStatus::Done
        }
        fn est_work(&self, _: usize) -> f64 {
            4.0
        }
    }

    #[test]
    fn recording_on_a_shared_obs_instead_of_ctx_breaks_the_trace() {
        let trace = |leaky: bool, workers: usize| {
            let obs = Obs::recording(Level::Debug);
            let task = Recorder {
                shared: leaky.then(|| obs.clone()),
                rendezvous: workers > 1,
                split_1_recorded: Default::default(),
                recorded: Default::default(),
            };
            run_map_job_obs(&task, 2, &cfg(2, 0.0, 1), "j", &obs, 0.0, workers);
            obs.trace_json()
        };
        // Through `ctx`, even the adversarial interleaving is invisible…
        assert_eq!(trace(false, 1), trace(false, 2));
        // …and the same task writing to the shared handle is caught.
        assert_ne!(trace(true, 1), trace(true, 2));
    }

    #[test]
    fn a_task_panic_is_reraised_on_the_caller() {
        struct Bomb;
        impl MapTask for Bomb {
            fn run(&self, split: usize, ctx: &mut AttemptCtx) -> MapStatus {
                assert!(split != 5, "split five exploded");
                ctx.consume(1.0);
                MapStatus::Done
            }
            fn est_work(&self, _: usize) -> f64 {
                1.0
            }
        }
        for workers in [1, 2, 4] {
            let caught = catch_unwind(|| {
                run_map_job_obs(
                    &Bomb,
                    12,
                    &cfg(4, 0.0, 1),
                    "j",
                    &Obs::disabled(),
                    0.0,
                    workers,
                )
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "split five exploded", "{workers} workers");
        }
    }
}

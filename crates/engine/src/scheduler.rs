//! The submission scheduler of the [`EngineService`](crate::EngineService):
//! a priority queue the service front-end pushes jobs into and the
//! persistent workers pop from.
//!
//! There is one queue discipline. Jobs pop by caller [`Priority`] first,
//! then by an estimated job cost (small before large), then by submission
//! order. Large jobs — e.g. dense random states on the Table-1
//! `[4,7,4,4,3,5]` register — therefore stop head-of-line-blocking cheap
//! ones that arrived later.
//!
//! The order never changes *what* is computed — every job is independent
//! and bit-identical to the sequential pipeline — only *when* it runs,
//! i.e. its queue wait.
//!
//! # Wait-time aging (the starvation guard)
//!
//! A size-aware queue without aging is not live: under a sustained stream
//! of smaller (or higher-priority) jobs arriving faster than the pool
//! serves them, a queued large job would be deferred indefinitely. The
//! scheduler therefore ages queued jobs: every full [`AGING_EPOCH`] a job
//! has spent in the queue halves its effective cost, and every
//! [`PRIORITY_PROMOTION_EPOCHS`] epochs promote it one [`Priority`] class.
//! A job of estimated cost `c` thus overtakes fresh minimum-cost
//! competitors of the same priority after at most `⌈log₂ c⌉ + 1` epochs,
//! and overtakes *any* fresh job after at most
//! `2 · PRIORITY_PROMOTION_EPOCHS` further epochs — every queued job's
//! wait is bounded by a multiple of the epoch plus residual service time,
//! no matter what keeps arriving. Ties (including aged-into-equality ties)
//! still resolve in submission order, so the oldest job wins.
//!
//! [`BinaryHeap`] keys are frozen at push, so aging is implemented as a
//! *lazy promotion pass*: each queued entry remembers its base key and its
//! enqueue epoch, and whenever a push or pop observes that the epoch has
//! advanced, the heap is rebuilt with every key recomputed at the job's
//! current age (an `O(n)` heapify, at most once per epoch — amortized
//! noise next to a single pipeline run). Between rebuilds keys are at most
//! one epoch stale, which is absorbed by the `+ 1` in the bound above.
//!
//! # Ticketed, FIFO-fair bounded admission
//!
//! On a bounded queue (`Scheduler::new` with a depth), blocking
//! submitters that find the queue full park on a **ticketed waiter
//! queue**: each parked submitter takes the next admission ticket, slots
//! freed by `Scheduler::pop` are handed to ticket holders strictly in
//! arrival order, and a concurrent `Scheduler::try_push` is refused
//! whenever ticket holders are parked — a non-blocking flood can never
//! steal a slot a parked submitter is owed. Every parked submitter
//! therefore admits after at most `tickets-ahead + 1` pops: a bounded
//! admission wait, recorded per job as
//! [`PrepareReport::admission_wait`](crate::PrepareReport) and observable
//! in aggregate through [`EngineStats::parked`](crate::EngineStats).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cache::CanonicalKey;
use crate::request::{PrepareReport, PrepareRequest, StatePayload};
use crate::service::EngineError;

/// The aging epoch: every full epoch of queue wait halves a job's
/// effective cost. With typical large/small cost ratios of ~10³ (≈10
/// halvings), a starved job overtakes same-priority traffic after ≈220 ms
/// and any traffic after ≈1.5 s — slow enough to keep the size-aware p99
/// win intact, fast enough that nothing starves.
pub const AGING_EPOCH: Duration = Duration::from_millis(20);

/// Epochs of queue wait per one-class [`Priority`] promotion. Cost decay
/// exhausts after at most 64 epochs (`u64` cost), so priority promotion
/// is deliberately the slower, second-stage credit: priority inversion
/// only happens for jobs the queue has demonstrably failed to serve for
/// many epochs.
pub const PRIORITY_PROMOTION_EPOCHS: u64 = 32;

/// Caller-assigned urgency of a [`PrepareRequest`], consulted before the
/// size estimate by the scheduler: all `High` jobs run before any
/// `Normal` job, which run before any `Low` job — until wait-time aging
/// promotes a long-queued job into the next class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work — yields to everything else.
    Low,
    /// The default for every request.
    #[default]
    Normal,
    /// Latency-sensitive work — jumps the queue regardless of size.
    High,
}

/// Estimated pipeline cost of a request, the scheduler's size key: the
/// dense pipeline walks the full amplitude vector (`dims.space_size()`),
/// the sparse one is linear in support size × register width. Clamped to
/// ≥ 1 so a malformed (e.g. empty-support) payload can never sort *ahead
/// of* every real job on a zero cost.
pub(crate) fn estimate_cost(request: &PrepareRequest) -> u64 {
    let cost = match &request.payload {
        StatePayload::Dense(amplitudes) => amplitudes.len() as u64,
        StatePayload::Sparse(entries) => {
            (entries.len() as u64).saturating_mul(request.dims.len().max(1) as u64)
        }
    };
    cost.max(1)
}

/// One accepted submission — a cache miss, since hits are answered at
/// admission — plus everything the worker needs to fill the cache and
/// report back.
pub(crate) struct Job {
    pub(crate) request: PrepareRequest,
    /// The request's fingerprint and canonical key, computed once at
    /// admission for the cache probe; the worker inserts its result under
    /// them. `None` when the cache is off.
    pub(crate) key: Option<(u64, CanonicalKey)>,
    /// Wall-clock instant of submission — `queue_wait` is measured from
    /// here to worker pickup (and therefore includes any parked admission
    /// wait).
    pub(crate) submitted_at: Instant,
    /// Time this job's blocking submitter spent parked on the admission
    /// ticket queue before the job entered the scheduler (zero for jobs
    /// admitted without parking). Copied onto
    /// [`PrepareReport::admission_wait`](crate::PrepareReport).
    pub(crate) admission_wait: Duration,
    /// The per-job result channel; the paired receiver lives in the
    /// caller's [`JobHandle`](crate::JobHandle).
    pub(crate) reply: Sender<Result<PrepareReport, EngineError>>,
}

impl Job {
    /// Resolves this job's handle without running it.
    pub(crate) fn reject(self, error: EngineError) {
        // A dropped handle is fine — nobody is waiting.
        let _ = self.reply.send(Err(error));
    }
}

/// Why [`Scheduler::try_push`] refused a job. The job itself is handed
/// back to the caller alongside this, so nothing about it (request, reply
/// channel) leaks into the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefusal {
    /// The queue is at its configured depth bound, or parked blocking
    /// submitters hold tickets for the next freed slots (admission is
    /// FIFO-fair: a non-blocking probe never steals a slot a parked
    /// submitter is owed).
    Full {
        /// Jobs queued at the moment of refusal (the bound, or less when
        /// the refusal protects a parked ticket-holder's slot).
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The queue no longer accepts submissions (closing or aborted).
    Closed,
}

/// Min-order sort key: (priority reversed, effective cost, sequence
/// number). Lower pops first. The first two components are recomputed
/// from the entry's age at every promotion pass.
type SortKey = (u8, u64, u64);

/// The aged sort key of a job `epochs` epochs after its enqueue: cost
/// halves per epoch, urgency steps one class toward `High` every
/// [`PRIORITY_PROMOTION_EPOCHS`]. Monotone: both components are
/// non-increasing in `epochs`, so an aged job's key only ever improves,
/// and the untouched `seq` still breaks ties in submission order.
fn aged_key(urgency: u8, cost: u64, seq: u64, epochs: u64) -> SortKey {
    let aged_cost = if epochs >= u64::from(u64::BITS) {
        0
    } else {
        cost >> epochs
    };
    let promoted = (epochs / PRIORITY_PROMOTION_EPOCHS).min(u64::from(u8::MAX)) as u8;
    (urgency.saturating_sub(promoted), aged_cost, seq)
}

struct Queued {
    key: Reverse<SortKey>,
    /// Base key components, kept so promotion passes can recompute `key`
    /// at the entry's current age.
    urgency: u8,
    cost: u64,
    seq: u64,
    /// Scheduler epoch at which this entry actually entered the heap (not
    /// at which its submitter arrived — a parked submission starts aging
    /// when it is admitted, with a key built at enqueue time).
    enqueued_epoch: u64,
    job: Job,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[derive(Default)]
struct Shared {
    heap: BinaryHeap<Queued>,
    /// No further submissions; workers drain the heap, then exit.
    closed: bool,
    /// Tear-down: the heap has been rejected wholesale and workers exit
    /// immediately after their in-flight job.
    aborted: bool,
    /// Deepest the queue has ever been — the admission-control observable
    /// ([`EngineStats::high_watermark`](crate::EngineStats)).
    high_watermark: usize,
    /// Scheduler epoch the heap keys were last recomputed at (promotion
    /// passes are lazy: at most one rebuild per epoch, on push or pop).
    refreshed_epoch: u64,
    /// Next admission ticket to hand to a parking blocking submitter.
    next_ticket: u64,
    /// The ticket currently owed the next freed slot; freed slots are
    /// consumed strictly in ticket order.
    serving_ticket: u64,
    /// Blocking submitters currently parked on the ticket queue
    /// ([`EngineStats::parked`](crate::EngineStats)). While nonzero,
    /// `try_push` refuses rather than steal an owed slot.
    parked: usize,
}

/// The condvar-guarded job queue shared between the service front-end and
/// its workers; see the [module documentation](self) for the aging and
/// admission-fairness design.
pub(crate) struct Scheduler {
    /// Admission bound on the number of queued (not yet picked-up) jobs;
    /// `None` admits unboundedly.
    depth: Option<usize>,
    /// The aging epoch: [`AGING_EPOCH`] in a service, shorter or longer in
    /// tests.
    epoch: Duration,
    /// Epoch 0 of this scheduler's aging clock.
    origin: Instant,
    shared: Mutex<Shared>,
    /// Workers wait here for jobs.
    available: Condvar,
    /// Parked blocking submitters wait here for their ticket's slot
    /// (bounded queues only). Notified broadly — every waiter rechecks
    /// whether it is the serving ticket.
    space: Condvar,
    /// Test-only: called with every job `pop` hands out, on the popping
    /// worker's thread, before the worker runs it. Tests set it to read
    /// the pop order and to hold the worker at a gate they control.
    #[cfg(test)]
    pub(crate) on_pop: std::sync::OnceLock<PopHook>,
}

/// The type of [`Scheduler::on_pop`].
#[cfg(test)]
pub(crate) type PopHook = Box<dyn Fn(&Job) + Send + Sync>;

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("epoch", &self.epoch)
            .field("queued", &self.len())
            .finish()
    }
}

impl Scheduler {
    pub(crate) fn new(depth: Option<usize>, epoch: Duration) -> Self {
        Scheduler {
            // A zero bound would deadlock blocking submitters forever;
            // clamp to at least one queue slot.
            depth: depth.map(|d| d.max(1)),
            // The epoch divides elapsed time; keep it away from zero.
            epoch: epoch.max(Duration::from_nanos(1)),
            origin: Instant::now(),
            shared: Mutex::new(Shared::default()),
            available: Condvar::new(),
            space: Condvar::new(),
            #[cfg(test)]
            on_pop: std::sync::OnceLock::new(),
        }
    }

    /// The current epoch of the aging clock.
    fn epoch_now(&self) -> u64 {
        (self.origin.elapsed().as_nanos() / self.epoch.as_nanos()) as u64
    }

    /// Lazy promotion pass: if the aging clock has ticked since the last
    /// rebuild, recompute every queued entry's key at its current age and
    /// re-heapify. `O(n)` at most once per epoch.
    fn maybe_refresh(&self, shared: &mut Shared) {
        let now = self.epoch_now();
        if now == shared.refreshed_epoch {
            return;
        }
        shared.refreshed_epoch = now;
        if shared.heap.is_empty() {
            return;
        }
        let mut entries = std::mem::take(&mut shared.heap).into_vec();
        for entry in &mut entries {
            let age = now.saturating_sub(entry.enqueued_epoch);
            entry.key = Reverse(aged_key(entry.urgency, entry.cost, entry.seq, age));
        }
        shared.heap = BinaryHeap::from(entries);
    }

    /// Whether the bounded queue has a free slot (always true unbounded).
    fn has_space(&self, shared: &Shared) -> bool {
        self.depth.is_none_or(|limit| shared.heap.len() < limit)
    }

    /// Enqueues under `seq`, constructing the sort key **at actual enqueue
    /// time** — never earlier. A job admitted after a long park therefore
    /// carries a fresh key (and a fresh aging baseline), not the key of
    /// the instant its submitter arrived.
    fn enqueue(&self, shared: &mut Shared, job: Job, seq: u64) {
        self.maybe_refresh(shared);
        // Priority::High = 2 must pop first → reverse into 0.
        let urgency = 2 - job.request.priority as u8;
        let cost = estimate_cost(&job.request);
        shared.heap.push(Queued {
            key: Reverse(aged_key(urgency, cost, seq, 0)),
            urgency,
            cost,
            seq,
            enqueued_epoch: shared.refreshed_epoch,
            job,
        });
        shared.high_watermark = shared.high_watermark.max(shared.heap.len());
    }

    /// Enqueues under `seq`, parking on the ticketed admission queue while
    /// a bounded queue is full **or earlier-arrived submitters are still
    /// parked** — the blocking, FIFO-fair admission path. Freed slots are
    /// consumed strictly in ticket order, so every parked submitter's wait
    /// is bounded by the pops ahead of its ticket. If the queue is (or
    /// becomes, while parked) closed, the job is rejected with
    /// [`EngineError::QueueClosed`] through its own reply channel.
    pub(crate) fn push(&self, job: Job, seq: u64) {
        let mut shared = self.shared.lock().expect("scheduler poisoned");
        if shared.closed || shared.aborted {
            drop(shared);
            job.reject(EngineError::QueueClosed);
            return;
        }
        // Fast path: space free and no one parked ahead.
        if self.has_space(&shared) && shared.parked == 0 {
            self.enqueue(&mut shared, job, seq);
            drop(shared);
            self.available.notify_one();
            return;
        }
        let mut job = job;
        let ticket = shared.next_ticket;
        shared.next_ticket += 1;
        shared.parked += 1;
        let parked_at = Instant::now();
        loop {
            if shared.closed || shared.aborted {
                shared.parked -= 1;
                drop(shared);
                job.reject(EngineError::QueueClosed);
                return;
            }
            if shared.serving_ticket == ticket && self.has_space(&shared) {
                shared.serving_ticket += 1;
                shared.parked -= 1;
                job.admission_wait = parked_at.elapsed();
                self.enqueue(&mut shared, job, seq);
                drop(shared);
                self.available.notify_one();
                // More than one slot may have been freed since the last
                // admission: hand the chain on to the next ticket holder.
                self.space.notify_all();
                return;
            }
            shared = self.space.wait(shared).expect("scheduler poisoned");
        }
    }

    /// Non-blocking admission: enqueues under `seq`, or hands the job back
    /// untouched (nothing queued, reply channel still owned by the caller)
    /// with the refusal reason — full or closed. Refuses not only when the
    /// queue is at its bound but also while blocking submitters are parked:
    /// their tickets own the next freed slots, and a `try_push` flood must
    /// not steal them (FIFO-fair admission).
    // The large Err variant is the point: a refused job is handed back
    // whole (request + reply channel) so nothing leaks into the queue.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&self, job: Job, seq: u64) -> Result<(), (Job, PushRefusal)> {
        let mut shared = self.shared.lock().expect("scheduler poisoned");
        if shared.closed || shared.aborted {
            return Err((job, PushRefusal::Closed));
        }
        if let Some(limit) = self.depth {
            if shared.heap.len() >= limit || shared.parked > 0 {
                let depth = shared.heap.len();
                return Err((job, PushRefusal::Full { depth, limit }));
            }
        }
        self.enqueue(&mut shared, job, seq);
        drop(shared);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available and returns it, or returns `None`
    /// when the worker should exit (queue closed and drained, or aborted).
    /// Runs the lazy aging promotion pass before selecting, so the popped
    /// job is the best under *current* effective keys.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut shared = self.shared.lock().expect("scheduler poisoned");
        loop {
            if shared.aborted {
                return None;
            }
            self.maybe_refresh(&mut shared);
            if let Some(queued) = shared.heap.pop() {
                drop(shared);
                // A slot freed up: wake the parked ticket holders so the
                // owed one (and only it) can take the slot.
                self.space.notify_all();
                #[cfg(test)]
                if let Some(on_pop) = self.on_pop.get() {
                    on_pop(&queued.job);
                }
                return Some(queued.job);
            }
            if shared.closed {
                return None;
            }
            shared = self.available.wait(shared).expect("scheduler poisoned");
        }
    }

    /// Drain mode: refuse new submissions, let workers finish what is
    /// queued, then have them exit.
    pub(crate) fn close(&self) {
        self.shared.lock().expect("scheduler poisoned").closed = true;
        self.available.notify_all();
        // Parked blocking submitters must wake to observe the close and
        // reject their jobs instead of waiting for space forever.
        self.space.notify_all();
    }

    /// Abort mode: refuse new submissions and resolve every queued job to
    /// [`EngineError::Shutdown`]; workers exit after their in-flight job.
    pub(crate) fn abort(&self) {
        let drained: Vec<Job> = {
            let mut shared = self.shared.lock().expect("scheduler poisoned");
            shared.closed = true;
            shared.aborted = true;
            shared.heap.drain().map(|queued| queued.job).collect()
        };
        self.available.notify_all();
        self.space.notify_all();
        for job in drained {
            job.reject(EngineError::Shutdown);
        }
    }

    /// Whether the queue refuses submissions (closing or aborted).
    pub(crate) fn is_closed(&self) -> bool {
        self.shared.lock().expect("scheduler poisoned").closed
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub(crate) fn len(&self) -> usize {
        self.shared.lock().expect("scheduler poisoned").heap.len()
    }

    /// Deepest the queue has ever been.
    pub(crate) fn high_watermark(&self) -> usize {
        self.shared
            .lock()
            .expect("scheduler poisoned")
            .high_watermark
    }

    /// Blocking submitters currently parked on the admission ticket queue.
    pub(crate) fn parked(&self) -> usize {
        self.shared.lock().expect("scheduler poisoned").parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_core::PrepareOptions;
    use mdq_num::radix::Dims;
    use mdq_states::ghz;
    use std::sync::mpsc::channel;

    fn dense(dims: &[usize], priority: Priority) -> PrepareRequest {
        let d = Dims::new(dims.to_vec()).unwrap();
        PrepareRequest::dense(d.clone(), ghz(&d), PrepareOptions::exact()).with_priority(priority)
    }

    fn job(
        request: PrepareRequest,
    ) -> (
        Job,
        std::sync::mpsc::Receiver<Result<PrepareReport, EngineError>>,
    ) {
        let (reply, rx) = channel();
        (
            Job {
                request,
                key: None,
                submitted_at: Instant::now(),
                admission_wait: Duration::ZERO,
                reply,
            },
            rx,
        )
    }

    fn scheduler(depth: Option<usize>) -> Scheduler {
        // An epoch no test reaches keeps the pure-ordering tests
        // time-independent; the aging tests construct their own scheduler
        // with a tiny epoch.
        Scheduler::new(depth, Duration::from_secs(3600))
    }

    /// Pushes the given requests in order and returns the space sizes in
    /// pop order.
    fn pop_order(requests: Vec<PrepareRequest>) -> Vec<usize> {
        let scheduler = scheduler(None);
        let mut receivers = Vec::new();
        for (seq, request) in requests.into_iter().enumerate() {
            let (job, rx) = job(request);
            scheduler.push(job, seq as u64);
            receivers.push(rx);
        }
        scheduler.close();
        let mut order = Vec::new();
        while let Some(job) = scheduler.pop() {
            order.push(job.request.dims.space_size());
        }
        order
    }

    #[test]
    fn size_aware_pops_small_jobs_first() {
        let order = pop_order(vec![
            dense(&[4, 4, 4], Priority::Normal), // 64
            dense(&[2, 2], Priority::Normal),    // 4
            dense(&[3, 3], Priority::Normal),    // 9
        ]);
        assert_eq!(order, vec![4, 9, 64]);
    }

    #[test]
    fn priority_beats_size() {
        let order = pop_order(vec![
            dense(&[2, 2], Priority::Low),     // 4, but Low
            dense(&[4, 4, 4], Priority::High), // 64, but High
            dense(&[3, 3], Priority::Normal),  // 9
        ]);
        assert_eq!(order, vec![64, 9, 4]);
    }

    #[test]
    fn equal_keys_fall_back_to_submission_order() {
        // Three distinct registers with the same space size (cost 6 each):
        // ties must resolve in submission order.
        let scheduler = scheduler(None);
        let shapes: [&[usize]; 3] = [&[2, 3], &[3, 2], &[6]];
        for (seq, shape) in shapes.iter().enumerate() {
            let (j, _rx) = job(dense(shape, Priority::Normal));
            scheduler.push(j, seq as u64);
        }
        scheduler.close();
        let mut order = Vec::new();
        while let Some(popped) = scheduler.pop() {
            order.push(popped.request.dims.as_slice().to_vec());
        }
        let want: Vec<Vec<usize>> = shapes.iter().map(|s| s.to_vec()).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn sparse_jobs_cost_by_support_not_space() {
        let d = Dims::new(vec![3; 12]).unwrap();
        let sparse = PrepareRequest::sparse(
            d.clone(),
            mdq_states::sparse::ghz(&d),
            PrepareOptions::exact(),
        );
        // 3 support entries × 12 qudits = 36 ≪ 3^12 dense amplitudes.
        assert_eq!(estimate_cost(&sparse), 36);
        let small_dense = dense(&[2, 2], Priority::Normal);
        assert_eq!(estimate_cost(&small_dense), 4);
    }

    #[test]
    fn empty_support_sparse_cost_is_clamped_to_one() {
        // Regression: an empty-support (malformed) sparse payload used to
        // estimate to cost 0 and sort ahead of every real job; the clamp
        // makes it tie with the genuinely smallest jobs instead — and
        // admission-time validation rejects it before it queues at all.
        let d = Dims::new(vec![3, 3]).unwrap();
        let empty = PrepareRequest::sparse(d.clone(), vec![], PrepareOptions::exact());
        assert_eq!(estimate_cost(&empty), 1);
        assert!(estimate_cost(&empty) >= 1, "no payload sorts below cost 1");
    }

    #[test]
    fn aged_key_is_componentwise_monotone() {
        // An aged job's effective key only ever improves: both the urgency
        // and the cost component are non-increasing in age, and the seq
        // tie-breaker is untouched.
        for &(urgency, cost) in &[(2u8, 1u64), (2, 4032), (1, 7), (1, u64::MAX), (0, 64)] {
            let mut previous = aged_key(urgency, cost, 9, 0);
            assert_eq!(previous, (urgency, cost, 9), "age 0 is the raw key");
            for epochs in 1..200u64 {
                let key = aged_key(urgency, cost, 9, epochs);
                assert!(
                    key <= previous,
                    "key must be monotone: {key:?} after {previous:?} at {epochs} epochs"
                );
                assert_eq!(key.2, 9, "seq is never aged");
                previous = key;
            }
            // Fully aged: minimal cost and top urgency.
            assert_eq!(aged_key(urgency, cost, 9, 1000), (0, 0, 9));
        }
        // Cost decays before priority promotes: one epoch halves the cost
        // but leaves the class; PRIORITY_PROMOTION_EPOCHS epochs promote.
        assert_eq!(aged_key(1, 4032, 0, 1), (1, 2016, 0));
        assert_eq!(
            aged_key(2, 4032, 0, PRIORITY_PROMOTION_EPOCHS).0,
            1,
            "one full promotion interval lifts Low to Normal"
        );
    }

    #[test]
    fn aging_promotes_a_queued_large_job_over_fresh_small_ones() {
        // A 1 ms epoch: the cost-64 job halves to below cost 4 after 5
        // epochs, so after sleeping past the promotion horizon it must pop
        // ahead of fresh small jobs — while ties keep submission order.
        let scheduler = Scheduler::new(None, Duration::from_millis(1));
        let (large, _rx1) = job(dense(&[4, 4, 4], Priority::Normal)); // cost 64
        scheduler.push(large, 0);
        std::thread::sleep(Duration::from_millis(10));
        for seq in 1..4u64 {
            let (small, _rx) = job(dense(&[2, 2], Priority::Normal)); // cost 4
            scheduler.push(small, seq);
        }
        scheduler.close();
        let first = scheduler.pop().expect("queue is non-empty");
        assert_eq!(
            first.request.dims.space_size(),
            64,
            "the aged large job pops before fresh small ones"
        );
        // The remaining equal-key smalls still pop in submission order.
        let mut rest = Vec::new();
        while let Some(popped) = scheduler.pop() {
            rest.push(popped.request.dims.space_size());
        }
        assert_eq!(rest, vec![4, 4, 4]);
    }

    #[test]
    fn aging_eventually_promotes_across_priority_classes() {
        // PRIORITY_PROMOTION_EPOCHS epochs of wait lift a Low job over a
        // fresh Normal one (cost decay alone never crosses classes).
        let epoch = Duration::from_millis(1);
        let scheduler = Scheduler::new(None, epoch);
        let (low, _rx1) = job(dense(&[2, 2], Priority::Low));
        scheduler.push(low, 0);
        std::thread::sleep(epoch * (PRIORITY_PROMOTION_EPOCHS as u32 + 4));
        let (normal, _rx2) = job(dense(&[2, 2], Priority::Normal));
        scheduler.push(normal, 1);
        scheduler.close();
        let first = scheduler.pop().expect("queue is non-empty");
        assert_eq!(
            first.request.priority,
            Priority::Low,
            "the long-starved Low job is promoted past fresh Normal work"
        );
    }

    #[test]
    fn abort_rejects_queued_jobs_with_shutdown() {
        let scheduler = scheduler(None);
        let (j1, rx1) = job(dense(&[2, 2], Priority::Normal));
        let (j2, rx2) = job(dense(&[3, 3], Priority::Normal));
        scheduler.push(j1, 0);
        scheduler.push(j2, 1);
        scheduler.abort();
        assert!(matches!(rx1.recv().unwrap(), Err(EngineError::Shutdown)));
        assert!(matches!(rx2.recv().unwrap(), Err(EngineError::Shutdown)));
        assert!(scheduler.pop().is_none(), "workers exit after abort");
        // Late submissions are rejected as queue-closed.
        let (j3, rx3) = job(dense(&[2, 2], Priority::Normal));
        scheduler.push(j3, 2);
        assert!(matches!(rx3.recv().unwrap(), Err(EngineError::QueueClosed)));
    }

    #[test]
    fn bounded_queue_refuses_when_full_and_frees_on_pop() {
        let scheduler = scheduler(Some(2));
        let (j1, _rx1) = job(dense(&[2, 2], Priority::Normal));
        let (j2, _rx2) = job(dense(&[3, 3], Priority::Normal));
        assert!(scheduler.try_push(j1, 0).is_ok());
        assert!(scheduler.try_push(j2, 1).is_ok());
        // Full: the job comes back untouched, with the refusal reason.
        let (j3, _rx3) = job(dense(&[2, 3], Priority::Normal));
        let (returned, refusal) = scheduler.try_push(j3, 2).unwrap_err();
        assert_eq!(refusal, PushRefusal::Full { depth: 2, limit: 2 });
        assert_eq!(returned.request.dims.as_slice(), &[2, 3]);
        assert_eq!(scheduler.len(), 2);
        assert_eq!(scheduler.high_watermark(), 2);
        // Popping frees a slot; admission resumes.
        assert!(scheduler.pop().is_some());
        assert!(scheduler.try_push(returned, 3).is_ok());
        assert_eq!(scheduler.high_watermark(), 2, "watermark is a maximum");
    }

    #[test]
    fn blocking_push_parks_until_space_frees() {
        let scheduler = scheduler(Some(1));
        let (j1, _rx1) = job(dense(&[2, 2], Priority::Normal));
        scheduler.push(j1, 0);
        std::thread::scope(|s| {
            let pusher = s.spawn(|| {
                let (j2, rx2) = job(dense(&[3, 3], Priority::Normal));
                // Parks: the queue is full until the main thread pops.
                scheduler.push(j2, 1);
                rx2
            });
            // Pop one job; the parked pusher must wake and enqueue.
            assert!(scheduler.pop().is_some());
            let _rx2 = pusher.join().unwrap();
            assert_eq!(scheduler.len(), 1);
        });
    }

    /// Parks `count` blocking pushers one at a time (each with a
    /// distinguishable register width so admission order is observable)
    /// and returns once all of them hold tickets.
    fn park_pushers<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        scheduler: &'s Scheduler,
        count: usize,
        first_seq: u64,
    ) -> Vec<std::thread::ScopedJoinHandle<'s, ()>> {
        let mut pushers = Vec::new();
        for i in 0..count {
            let shape = vec![2; i + 2]; // widths 2, 3, 4, … identify order
            pushers.push(s.spawn(move || {
                let (j, _rx) = job(dense(&shape, Priority::Normal));
                scheduler.push(j, first_seq + i as u64);
            }));
            // Tickets are handed out at park time, so admission order is
            // pinned by parking the submitters strictly one after another.
            while scheduler.parked() < i + 1 {
                std::thread::yield_now();
            }
        }
        pushers
    }

    #[test]
    fn parked_pushers_admit_in_ticket_order_and_try_push_never_steals() {
        // A one-slot queue holds each admitted job alone until it pops,
        // so pop order is admission order: the widths observed by pop
        // directly expose the admission order of the parked pushers.
        let scheduler = scheduler(Some(1));
        let (filler, _rx) = job(dense(&[5], Priority::Normal));
        scheduler.push(filler, 0);
        std::thread::scope(|s| {
            let pushers = park_pushers(s, &scheduler, 3, 1);
            // With three ticket holders parked, a non-blocking probe must
            // be refused even while pops free slots — the freed slots are
            // owed to the tickets, in order.
            let mut widths = vec![scheduler.pop().expect("filler").request.dims.len()];
            for _ in 0..3 {
                loop {
                    let (probe, _prx) = job(dense(&[7], Priority::Normal));
                    match scheduler.try_push(probe, 99) {
                        Err((_, PushRefusal::Full { .. })) => {}
                        Err((_, refusal)) => {
                            panic!("probe must be refused as Full, got {refusal:?}")
                        }
                        Ok(()) => panic!("probe must be refused while tickets wait"),
                    }
                    // The owed ticket holder has admitted once the queue
                    // holds its job again; pop it and move to the next.
                    if scheduler.len() == 1 && scheduler.parked() < 3 {
                        break;
                    }
                    std::thread::yield_now();
                }
                widths.push(scheduler.pop().expect("admitted job").request.dims.len());
            }
            for pusher in pushers {
                pusher.join().unwrap();
            }
            assert_eq!(
                widths,
                vec![1, 2, 3, 4],
                "parked submitters admit strictly in ticket (arrival) order"
            );
            assert_eq!(scheduler.parked(), 0);
            // With no tickets outstanding and a free slot, probes admit
            // again.
            let (probe, _prx) = job(dense(&[7], Priority::Normal));
            assert!(scheduler.try_push(probe, 100).is_ok());
        });
    }

    #[test]
    fn close_wakes_every_parked_ticket_holder() {
        let scheduler = scheduler(Some(1));
        let (j1, _rx1) = job(dense(&[2, 2], Priority::Normal));
        scheduler.push(j1, 0);
        std::thread::scope(|s| {
            let mut receivers = Vec::new();
            for i in 0..3u64 {
                let (j, rx) = job(dense(&[3, 3], Priority::Normal));
                receivers.push(rx);
                let sched = &scheduler;
                s.spawn(move || sched.push(j, 1 + i));
                while scheduler.parked() < (i + 1) as usize {
                    std::thread::yield_now();
                }
            }
            // Close: every ticket holder — first in line or last — must
            // wake and reject its job rather than wait for space forever.
            scheduler.close();
            for rx in &receivers {
                assert!(matches!(rx.recv().unwrap(), Err(EngineError::QueueClosed)));
            }
        });
        assert_eq!(scheduler.parked(), 0, "no ticket holder is left parked");
    }

    #[test]
    fn abort_wakes_every_parked_ticket_holder() {
        let scheduler = scheduler(Some(1));
        let (j1, rx1) = job(dense(&[2, 2], Priority::Normal));
        scheduler.push(j1, 0);
        std::thread::scope(|s| {
            let mut receivers = Vec::new();
            for i in 0..2u64 {
                let (j, rx) = job(dense(&[3, 3], Priority::Normal));
                receivers.push(rx);
                let sched = &scheduler;
                s.spawn(move || sched.push(j, 1 + i));
                while scheduler.parked() < (i + 1) as usize {
                    std::thread::yield_now();
                }
            }
            scheduler.abort();
            // The queued job resolves to Shutdown; the parked ones to
            // QueueClosed (they were never queued).
            assert!(matches!(rx1.recv().unwrap(), Err(EngineError::Shutdown)));
            for rx in &receivers {
                assert!(matches!(rx.recv().unwrap(), Err(EngineError::QueueClosed)));
            }
        });
        assert_eq!(scheduler.parked(), 0);
    }

    #[test]
    fn zero_depth_is_clamped_to_one() {
        let scheduler = scheduler(Some(0));
        let (j1, _rx1) = job(dense(&[2, 2], Priority::Normal));
        assert!(scheduler.try_push(j1, 0).is_ok(), "one slot always exists");
        let (j2, _rx2) = job(dense(&[3, 3], Priority::Normal));
        assert!(matches!(
            scheduler.try_push(j2, 1),
            Err((_, PushRefusal::Full { limit: 1, .. }))
        ));
    }

    #[test]
    fn try_push_after_close_reports_closed() {
        let scheduler = scheduler(None);
        scheduler.close();
        let (j, _rx) = job(dense(&[2, 2], Priority::Normal));
        assert!(matches!(
            scheduler.try_push(j, 0),
            Err((_, PushRefusal::Closed))
        ));
    }

    #[test]
    fn close_drains_before_exit() {
        let scheduler = scheduler(None);
        let (j, _rx) = job(dense(&[2, 2], Priority::Normal));
        scheduler.push(j, 0);
        scheduler.close();
        assert!(scheduler.pop().is_some(), "queued job survives close");
        assert!(scheduler.pop().is_none(), "then the worker exits");
    }
}

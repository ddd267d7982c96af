//! Execution machinery of the threaded runtime.
//!
//! The runtime has one deployment, the elastic chain of
//! [`crate::elastic::ElasticPipeline`]; a fixed chain
//! ([`crate::run_pipeline`]) is that chain run with an empty scale plan.
//! This module holds the data plane the chain is built from:
//!
//! * [`Worker`] — the worker thread: event-driven two-input poll loop,
//!   frame handling (batch dispatch, high-water-mark observation, output
//!   forwarding, result emission, in-flight accounting, busy-time
//!   metering), plus the command mailbox (rewire / absorb / shed /
//!   census / export / install / retire) the control plane drives while
//!   the chain is fenced.
//! * [`ChainArena`] — the frame-buffer circulation of one chain width:
//!   flow-back rings from the chain ends to the driver's batchers and the
//!   surplus legs between neighbours.  Rebuilt on every resize.
//! * [`EntryBatcher`] / [`EntryState`] — the driver's entry-frame assembly
//!   for one direction / both directions: `batch_size` arrivals per frame,
//!   expiries riding along, `flush_interval` aging, and each pending
//!   frame's departure time (the driver's paced send path holds a frame
//!   until then).
//! * [`spawn_collector`] — the collector thread: reads the high-water
//!   marks *before* vacuuming (Section 6.1.3 step 1), drains the result
//!   queue, emits punctuations, and feeds the metrics bus's latency EWMA.
//! * The shared primitives: [`StreamClock`], [`InFlight`] (quiescence
//!   accounting), [`send_frame`], [`WORKER_PARK`].
//!
//! Everything here is `pub(crate)`: the public API stays in
//! [`crate::pipeline`] and [`crate::elastic`].

use crate::channel::{spsc_bounded, unbounded, Receiver, Sender, WaitSet};
use crate::metrics::MetricsBus;
use crate::options::Pacing;
use llhj_core::message::{
    Direction, Handoff, LeftToRight, MessageBatch, NodeOutput, RightToLeft, WindowSegment,
};
use llhj_core::node::PipelineNode;
use llhj_core::punctuation::{HighWaterMarks, OutputItem, Punctuation};
use llhj_core::rebalance::shed_ranges;
use llhj_core::result::{ResultTuple, TimedResult};
use llhj_core::stats::{LatencySeries, LatencySummary, NodeCounters};
use llhj_core::time::Timestamp;
use llhj_sync::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use llhj_sync::sync::Arc;
use llhj_sync::thread::{self, JoinHandle};
use llhj_sync::time::{Duration, Instant};

/// Safety-net bound on how long a worker parks between wake-ups.  Workers
/// are woken eagerly — by frame arrivals through their [`WaitSet`] and by
/// the driver at shutdown — so this timeout only bounds the damage of a
/// missed notification; it is not a polling interval.
pub(crate) const WORKER_PARK: Duration = Duration::from_millis(10);

/// How many drained frame buffers a worker keeps per direction for reuse.
/// Small on purpose: each direction circulates one buffer per in-flight
/// frame, so a handful covers the steady state and a burst just allocates.
const ARENA_POOL: usize = 4;

// ---------------------------------------------------------------------------
// Core pinning
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", not(llhj_model)))]
mod affinity {
    // `sched_setaffinity` declared directly — std already links libc, and
    // this build environment cannot fetch the `libc` crate.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// `cpu_set_t` is 1024 bits (128 bytes) on glibc; a `[u64; 16]` has
    /// the same size and layout for the mask-passing purpose here.
    const CPU_SET_WORDS: usize = 16;

    pub(super) fn pin_current_thread(core: usize) -> bool {
        if core >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut set = [0u64; CPU_SET_WORDS];
        set[core / 64] |= 1 << (core % 64);
        // SAFETY: `set` is a valid, initialised 128-byte CPU mask living
        // for the duration of the call, and pid 0 means the calling
        // thread; the syscall reads the mask and has no other memory
        // effects.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0 }
    }

    pub(super) fn unpin_current_thread() {
        let set = [u64::MAX; CPU_SET_WORDS];
        // SAFETY: as in `pin_current_thread`; an all-ones mask restores
        // the thread's eligibility for every online core.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr());
        }
    }

    pub(super) const SUPPORTED: bool = true;
}

#[cfg(not(all(target_os = "linux", not(llhj_model))))]
mod affinity {
    pub(super) fn pin_current_thread(_core: usize) -> bool {
        false
    }

    pub(super) fn unpin_current_thread() {}

    pub(super) const SUPPORTED: bool = false;
}

/// True when [`CoreMap`] pinning would actually take effect for a
/// pipeline needing `threads` threads: a Linux host (non-model build)
/// with at least that many cores.  Bench binaries record this next to
/// their numbers so a snapshot states whether placement was controlled.
pub(crate) fn pinning_available(threads: usize) -> bool {
    affinity::SUPPORTED
        && llhj_sync::thread::available_parallelism()
            .map(|n| n.get() >= threads)
            .unwrap_or(false)
}

/// Assigns the pipeline's worker and collector threads to cores (the
/// driver is the caller's thread and stays unpinned).
///
/// Built only when `pin_cores` is requested *and*
/// [`pinning_available`] holds — otherwise every caller sees `None` and
/// the run proceeds exactly as before (the documented cores < threads
/// no-op).  Slots wrap modulo the core count so an elastic pipeline that
/// grows beyond the planned width degrades to sharing cores instead of
/// failing.
pub(crate) struct CoreMap {
    cores: usize,
    offset: usize,
}

impl CoreMap {
    pub(crate) fn new(enabled: bool, threads: usize, offset: usize) -> Option<CoreMap> {
        if !enabled || !pinning_available(threads) {
            return None;
        }
        let cores = llhj_sync::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Some(CoreMap { cores, offset })
    }

    /// The core backing pin slot `slot`.
    pub(crate) fn core(&self, slot: usize) -> usize {
        (self.offset + slot) % self.cores
    }
}

/// Pins the calling thread to `core`; worker/collector threads call this
/// first thing on their own stack.
pub(crate) fn pin_thread(core: usize) {
    affinity::pin_current_thread(core);
}

/// Restores the calling thread's affinity to all cores (the public
/// [`crate::unpin_thread`], for bench binaries that pin by hand).
pub(crate) fn unpin_thread() {
    affinity::unpin_current_thread();
}

/// The shared stream clock: maps wall-clock time to stream time.
///
/// Its start instant is the run's single time origin: workers stamp
/// results against it, and the paced driver holds every entry frame until
/// its departure relative to it ([`StreamClock::start`]), so a result's
/// latency never includes time spent before the clock started.  A shard
/// mesh shares one clock across all its chains, split children included.
pub(crate) struct StreamClock {
    pacing: Pacing,
    start: Instant,
    /// Stream time of the most recently injected driver event (drives the
    /// clock in unpaced mode).
    injected_us: AtomicU64,
}

impl StreamClock {
    pub(crate) fn new(pacing: Pacing) -> Self {
        StreamClock {
            pacing,
            start: Instant::now(),
            injected_us: AtomicU64::new(0),
        }
    }

    /// The wall-clock instant stream time zero maps to.
    pub(crate) fn start(&self) -> Instant {
        self.start
    }

    pub(crate) fn note_injection(&self, at: Timestamp) {
        self.injected_us
            .fetch_max(at.as_micros(), Ordering::Relaxed);
    }

    pub(crate) fn now(&self) -> Timestamp {
        match self.pacing {
            Pacing::Unpaced => Timestamp::from_micros(self.injected_us.load(Ordering::Relaxed)),
            Pacing::RealTime { speedup } => {
                // `speedup` is validated finite by `PipelineOptions::
                // validate`; a negative value clamps to a frozen clock
                // instead of travelling through the float→int cast.
                let elapsed = self.start.elapsed().as_secs_f64() * speedup.max(0.0);
                Timestamp::from_micros(saturating_micros(elapsed))
            }
        }
    }
}

/// Converts `secs` of stream time to whole microseconds with explicit
/// saturation: NaN and negative values map to 0, values beyond the `u64`
/// range to `u64::MAX`.  (The bare `as` cast has the same limits but hides
/// the policy; the clock's behaviour under degenerate `speedup` values
/// should be a stated contract, not a cast artefact.)
pub(crate) fn saturating_micros(secs: f64) -> u64 {
    let micros = secs * 1e6;
    if micros.is_nan() || micros <= 0.0 {
        0
    } else if micros >= u64::MAX as f64 {
        u64::MAX
    } else {
        micros as u64
    }
}

/// In-flight frame accounting plus the wait set the driver parks on while
/// draining: the counter going to zero is the pipeline's quiescence signal.
pub(crate) struct InFlight {
    count: AtomicI64,
    quiesce: WaitSet,
}

impl InFlight {
    pub(crate) fn new() -> Self {
        InFlight {
            count: AtomicI64::new(0),
            quiesce: WaitSet::new(),
        }
    }

    pub(crate) fn add(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    /// Decrements the counter, waking the driver when it reaches zero.
    pub(crate) fn finish(&self) {
        if self.count.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.quiesce.notify();
        }
    }

    /// Parks until no frame is anywhere in the pipeline.
    pub(crate) fn wait_for_quiescence(&self) {
        loop {
            let seen = self.quiesce.epoch();
            if self.count.load(Ordering::SeqCst) <= 0 {
                return;
            }
            self.quiesce.wait(seen, WORKER_PARK);
        }
    }
}

/// Sends one frame, keeping the global in-flight frame count consistent
/// (the driver's quiescence detection counts frames, not messages).
pub(crate) fn send_frame<R, S>(
    tx: &Sender<MessageBatch<R, S>>,
    frame: MessageBatch<R, S>,
    in_flight: &InFlight,
) {
    if frame.is_empty() {
        return;
    }
    in_flight.add();
    if tx.send(frame).is_err() {
        in_flight.finish();
    }
}

// ---------------------------------------------------------------------------
// Driver-side entry batching
// ---------------------------------------------------------------------------

/// One direction's entry-frame assembly state in the driver: the pending
/// messages, how many of them are arrivals (expiries ride along without
/// counting towards `batch_size`), when the frame started filling (for
/// the `flush_interval` age), the due time of its latest message, and the
/// entry channel the frames leave on.
pub(crate) struct EntryBatcher<M, R, S> {
    pending: Vec<M>,
    pub(crate) arrivals: usize,
    started_at: Option<Timestamp>,
    /// Stream time of the latest pending message: the departure time of
    /// every flush except the age flush.
    due: Timestamp,
    /// Arrivals this batcher has sent — the injected count, which falls
    /// short of the pushed count only when a cancel dropped a frame.
    pub(crate) departed: usize,
    tx: Sender<MessageBatch<R, S>>,
    wrap: fn(Vec<M>) -> MessageBatch<R, S>,
    /// Drained frame buffers flowing back from the direction's sink node
    /// (rightmost for left-to-right frames, node 0 for the other way):
    /// flushed frames are assembled in recycled buffers, so steady-state
    /// injection allocates no fresh `Vec`s.
    recycle: Receiver<Vec<M>>,
    /// Buffers rescued from a replaced flow-back ring; spent first.
    spare: Vec<Vec<M>>,
    /// Buffers this batcher had to allocate because the recycle ring was
    /// empty.  The honesty counter behind the arena tests.
    pub(crate) fresh_allocs: u64,
}

impl<M, R, S> EntryBatcher<M, R, S> {
    pub(crate) fn new(
        tx: Sender<MessageBatch<R, S>>,
        recycle: Receiver<Vec<M>>,
        wrap: fn(Vec<M>) -> MessageBatch<R, S>,
    ) -> Self {
        EntryBatcher {
            pending: Vec::new(),
            arrivals: 0,
            started_at: None,
            due: Timestamp::ZERO,
            departed: 0,
            tx,
            wrap,
            recycle,
            spare: Vec::new(),
            fresh_allocs: 0,
        }
    }

    /// Re-points the buffer flow-back ring at a new sink worker.  Buffers
    /// still parked in the old ring are kept, not dropped.
    pub(crate) fn set_recycle(&mut self, rx: Receiver<Vec<M>>) {
        let old = std::mem::replace(&mut self.recycle, rx);
        while let Ok(buf) = old.try_recv() {
            self.spare.push(buf);
        }
    }

    /// The buffer the next frame is assembled in: recycled when the sink
    /// has flowed one back, freshly allocated (and counted) otherwise.
    fn next_buffer(&mut self) -> Vec<M> {
        if let Some(mut buf) = self.spare.pop() {
            buf.clear();
            return buf;
        }
        if let Ok(mut buf) = self.recycle.try_recv() {
            buf.clear();
            return buf;
        }
        self.fresh_allocs += 1;
        Vec::new()
    }

    /// Queues a control message due at `at`; it rides the next flush.
    pub(crate) fn push(&mut self, msg: M, at: Timestamp) {
        if self.pending.is_empty() {
            self.started_at = Some(at);
        }
        self.due = at;
        self.pending.push(msg);
    }

    /// Queues a tuple arrival, counting it towards the batch size.
    pub(crate) fn push_arrival(&mut self, msg: M, at: Timestamp) {
        self.push(msg, at);
        self.arrivals += 1;
    }

    /// Sends the pending frame (if any), counts its arrivals on the
    /// metrics bus and resets the assembly state.  The caller has already
    /// held the frame until its departure time.
    pub(crate) fn flush(
        &mut self,
        in_flight: &InFlight,
        metrics: &MetricsBus,
        frames_injected: &mut u64,
    ) {
        if self.pending.is_empty() {
            return;
        }
        let replacement = self.next_buffer();
        send_frame(
            &self.tx,
            (self.wrap)(std::mem::replace(&mut self.pending, replacement)),
            in_flight,
        );
        *frames_injected += 1;
        metrics.note_arrivals(self.arrivals as u64);
        self.departed += self.arrivals;
        self.arrivals = 0;
        self.started_at = None;
    }

    /// Drops the pending frame unsent (a cancelled run injects nothing
    /// whose departure it did not reach).
    pub(crate) fn discard(&mut self) {
        self.pending.clear();
        self.arrivals = 0;
        self.started_at = None;
    }

    /// True if any pending message satisfies `pred`.  The drivers use
    /// this to detect an expiry about to overtake its own still-buffered
    /// arrival: the two travel in opposite directions on different entry
    /// channels, so FIFO order cannot save them — only stream-time
    /// separation can, and a partial frame parked past the window length
    /// destroys that separation.
    pub(crate) fn holds_pending(&self, pred: impl Fn(&M) -> bool) -> bool {
        self.pending.iter().any(pred)
    }

    /// The pending messages, for re-aiming arrivals after a resize.
    pub(crate) fn pending_mut(&mut self) -> &mut [M] {
        &mut self.pending
    }

    /// Departure time of the pending frame when it leaves with its latest
    /// message (count fill, last arrival, expiry barrier, fence); `None`
    /// when nothing is pending.
    pub(crate) fn due(&self) -> Option<Timestamp> {
        self.started_at.map(|_| self.due)
    }

    /// Departure time of the age flush — `interval` after the frame
    /// started filling — if stream time `now` has reached it.
    pub(crate) fn aged_by(
        &self,
        now: Timestamp,
        interval: llhj_core::time::TimeDelta,
    ) -> Option<Timestamp> {
        self.started_at
            .map(|s| s.saturating_add(interval))
            .filter(|&deadline| deadline <= now)
    }

    /// Replaces the entry channel (the elastic pipeline's right entry
    /// moves whenever the rightmost node changes).
    pub(crate) fn set_sender(&mut self, tx: Sender<MessageBatch<R, S>>) {
        self.tx = tx;
    }

    /// The current entry channel (for the metrics occupancy probe).
    pub(crate) fn sender(&self) -> &Sender<MessageBatch<R, S>> {
        &self.tx
    }
}

/// One of the driver's two entry batchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Entry {
    /// The left entry: R arrivals and S expiries.
    Left,
    /// The right entry: S arrivals and R expiries.
    Right,
}

/// The driver's entry-frame assembly state for both directions.  The
/// driver owns it outright — the paced driver holds each frame until its
/// departure time itself, so no other thread ever touches it.
pub(crate) struct EntryState<R, S> {
    pub(crate) left: EntryBatcher<LeftToRight<R>, R, S>,
    pub(crate) right: EntryBatcher<RightToLeft<S>, R, S>,
    pub(crate) frames_injected: u64,
}

impl<R, S> EntryState<R, S> {
    /// Entry state sending on the two entry channels and recycling the
    /// buffers a [`ChainArena`]'s sinks flow back.
    pub(crate) fn new(
        left_tx: Sender<MessageBatch<R, S>>,
        right_tx: Sender<MessageBatch<R, S>>,
        recycle_ltr: Receiver<LtrBuf<R>>,
        recycle_rtl: Receiver<RtlBuf<S>>,
    ) -> Self {
        EntryState {
            left: EntryBatcher::new(left_tx, recycle_ltr, MessageBatch::Left),
            right: EntryBatcher::new(right_tx, recycle_rtl, MessageBatch::Right),
            frames_injected: 0,
        }
    }

    /// Sends `side`'s pending frame (see [`EntryBatcher::flush`]).
    pub(crate) fn send(&mut self, side: Entry, in_flight: &InFlight, metrics: &MetricsBus) {
        match side {
            Entry::Left => self
                .left
                .flush(in_flight, metrics, &mut self.frames_injected),
            Entry::Right => self
                .right
                .flush(in_flight, metrics, &mut self.frames_injected),
        }
    }

    /// Drops `side`'s pending frame unsent.
    pub(crate) fn discard(&mut self, side: Entry) {
        match side {
            Entry::Left => self.left.discard(),
            Entry::Right => self.right.discard(),
        }
    }

    /// The frames a flush of both sides sends, as `(departure, side)` in
    /// departure order (flatten the result): with `Some(interval)` only the
    /// frames aged by stream time `now`, each departing at its age
    /// deadline; with `None` every pending frame, each departing with its
    /// latest message.
    pub(crate) fn departures(
        &self,
        aged: Option<(Timestamp, llhj_core::time::TimeDelta)>,
    ) -> [Option<(Timestamp, Entry)>; 2] {
        let (left, right) = match aged {
            Some((now, interval)) => (
                self.left.aged_by(now, interval),
                self.right.aged_by(now, interval),
            ),
            None => (self.left.due(), self.right.due()),
        };
        let mut out = [
            left.map(|at| (at, Entry::Left)),
            right.map(|at| (at, Entry::Right)),
        ];
        out.sort_unstable();
        out
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

type Frame<R, S> = MessageBatch<R, S>;

/// Control messages the pipeline sends to a worker through its mailbox.
/// Commands only travel while the pipeline is fenced; a run with an empty
/// scale plan never sends one.
pub(crate) enum WorkerCommand<R, S> {
    /// Renumber the node and (optionally) replace channel endpoints.
    Rewire {
        id: usize,
        nodes: usize,
        left_rx: Option<Receiver<Frame<R, S>>>,
        right_rx: Option<Receiver<Frame<R, S>>>,
        /// Outer `None` keeps the current sender, `Some(x)` replaces it
        /// with `x` (which may itself be `None`: the node became an end).
        to_left: Option<Option<Sender<Frame<R, S>>>>,
        to_right: Option<Option<Sender<Frame<R, S>>>>,
        /// The worker's legs of the resized chain's arena circulation.
        arena: ArenaLegs<R, S>,
        done: Sender<ScaleConfirm>,
    },
    /// Absorb one migrated segment arriving from the `from` side, install
    /// it (matching where the node type requires it), ack it, confirm.
    Absorb {
        from: Direction,
        stall: Option<Duration>,
        done: Sender<ScaleConfirm>,
    },
    /// Shed the plan-assigned window slice towards `direction`: export the
    /// range, hand it over as a [`Handoff::Segment`], await the ack,
    /// confirm.  One half of a redistribution edge transfer (the
    /// neighbour executes the matching [`WorkerCommand::Absorb`]).
    Shed {
        direction: Direction,
        r: usize,
        s: usize,
        done: Sender<ScaleConfirm>,
    },
    /// Report the node's stored-window census `(|WR_k|, |WS_k|)` — the
    /// input the control plane feeds the redistribution planner.
    Census { done: Sender<CensusReport> },
    /// Export the node's entire window back to the control plane, leaving
    /// the node empty.  The cross-*shard* half of a mesh split/merge:
    /// unlike [`WorkerCommand::Shed`] no neighbour is involved — the mesh
    /// layer partitions the rows by hash and re-installs them (into this
    /// chain and/or a sibling chain) with [`WorkerCommand::Install`].
    ExportAll { done: Sender<WindowSegment<R, S>> },
    /// Install a segment *silently* — merged without matching.  Valid only
    /// for cross-shard movement, where the rows re-enter a chain at the
    /// pipeline position they held in the source chain and every pair they
    /// could meet was already examined there (matching again would
    /// duplicate results on a fragment-replicate merge).
    Install {
        segment: WindowSegment<R, S>,
        done: Sender<ScaleConfirm>,
    },
    /// Export local state, hand it to the left neighbour, await the ack,
    /// exit the thread.
    Retire {
        absorb_first: bool,
        stall: Option<Duration>,
    },
}

/// A worker's confirmation that it executed a scale command.
pub(crate) struct ScaleConfirm {
    pub(crate) migrated_tuples: usize,
}

/// A worker's reply to [`WorkerCommand::Census`].
pub(crate) struct CensusReport {
    pub(crate) node: usize,
    pub(crate) wr: usize,
    pub(crate) ws: usize,
}

/// Shared context every worker holds.
pub(crate) struct WorkerShared<R, S> {
    pub(crate) hwm: Arc<HighWaterMarks>,
    pub(crate) clock: Arc<StreamClock>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) in_flight: Arc<InFlight>,
    pub(crate) results: Sender<TimedResult<R, S>>,
    /// This worker's busy-nanoseconds slot on the metrics bus; bumped
    /// (relaxed) after every frame.
    pub(crate) busy_ns: Arc<AtomicU64>,
}

/// What a worker reports when its thread exits.
pub(crate) struct WorkerExit {
    pub(crate) counters: NodeCounters,
    pub(crate) idle_wakeups: u64,
    /// Frame buffers this worker allocated because its arena pool was
    /// empty.  Zero bar warm-up when the arena circulation is working.
    pub(crate) batch_allocs: u64,
}

/// Per-worker placement, decided by the pipeline that spawns the worker.
pub(crate) struct WorkerWiring<R, S> {
    /// The wait set the worker parks on.  Created by the *caller* so ring
    /// channels feeding this worker can bind it at construction (the
    /// lock-free notify path cannot look a waiter up later).
    pub(crate) waitset: WaitSet,
    /// Core to pin the worker thread to, when a [`CoreMap`] is active.
    pub(crate) pin_core: Option<usize>,
    /// The worker's legs of the chain's frame-buffer circulation.
    pub(crate) arena: ArenaLegs<R, S>,
}

/// How many drained buffers each leg of the arena circulation holds.
/// Pure capacity recycling: a full leg drops the buffer, an empty one
/// costs an allocation.
const RECYCLE_DEPTH: usize = 8;

type LtrBuf<R> = Vec<LeftToRight<R>>;
type RtlBuf<S> = Vec<RightToLeft<S>>;

/// One worker's legs of the frame-buffer circulation (see
/// [`ChainArena`]).  Every leg is a best-effort SPSC ring.
pub(crate) struct ArenaLegs<R, S> {
    /// Where the rightmost node (the left-to-right sink) flows drained
    /// LTR buffers back to the driver's left batcher.
    recycle_ltr: Option<Sender<LtrBuf<R>>>,
    /// Same for RTL buffers at node 0.
    recycle_rtl: Option<Sender<RtlBuf<S>>>,
    /// Surplus LTR buffers towards the left neighbour.  Node 0
    /// *originates* LTR frames (an acknowledgement frame per right-to-left
    /// frame it handles) without receiving a matching LTR buffer, so
    /// without this leg it allocates once per handled frame while the
    /// driver's ring overflows with the very buffers it needs.
    xfer_ltr: Option<Sender<LtrBuf<R>>>,
    /// Surplus LTR buffers arriving from the right neighbour.
    refill_ltr: Option<Receiver<LtrBuf<R>>>,
    /// Mirror leg for RTL buffers, towards the right neighbour (the
    /// rightmost node originates expedition-end markers).
    xfer_rtl: Option<Sender<RtlBuf<S>>>,
    /// Surplus RTL buffers arriving from the left neighbour.
    refill_rtl: Option<Receiver<RtlBuf<S>>>,
}

/// The frame-buffer circulation of one chain width.
///
/// Each direction's sink node returns drained entry buffers to the
/// driver's batcher over a small ring.  Buffers end their life at
/// whatever node their last message terminates on (acknowledgement frames
/// at the rightmost node, expedition-end markers at the home node), while
/// new frames originate at the opposite end, so surplus LTR buffers
/// migrate leftward to node 0 and surplus RTL buffers rightward to the
/// rightmost node, hop by hop (each hop is SPSC by construction; a single
/// ring would be MPSC).  Middle nodes relay opportunistically, one buffer
/// per handled frame.
///
/// The legs follow the chain's shape, so every resize builds a fresh
/// arena for the new width inside its fence and re-points the driver's
/// batchers and every worker at it.  The batchers keep the buffers still
/// parked in their old flow-back rings; those on the old worker legs are
/// dropped, so a resize costs a handful of allocations, not a leak.
pub(crate) struct ChainArena<R, S> {
    /// Legs of node `k`, indexed by node id.
    pub(crate) legs: Vec<ArenaLegs<R, S>>,
    /// The driver's end of the rightmost node's flow-back ring.
    pub(crate) recycle_ltr: Receiver<LtrBuf<R>>,
    /// The driver's end of node 0's flow-back ring.
    pub(crate) recycle_rtl: Receiver<RtlBuf<S>>,
}

impl<R, S> ChainArena<R, S> {
    pub(crate) fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a chain has at least one node");
        let mut legs: Vec<ArenaLegs<R, S>> = (0..nodes)
            .map(|_| ArenaLegs {
                recycle_ltr: None,
                recycle_rtl: None,
                xfer_ltr: None,
                refill_ltr: None,
                xfer_rtl: None,
                refill_rtl: None,
            })
            .collect();
        let (tx, recycle_ltr) = spsc_bounded(RECYCLE_DEPTH, None);
        legs[nodes - 1].recycle_ltr = Some(tx);
        let (tx, recycle_rtl) = spsc_bounded(RECYCLE_DEPTH, None);
        legs[0].recycle_rtl = Some(tx);
        for k in 0..nodes - 1 {
            let (tx, rx) = spsc_bounded(RECYCLE_DEPTH, None);
            legs[k + 1].xfer_ltr = Some(tx);
            legs[k].refill_ltr = Some(rx);
            let (tx, rx) = spsc_bounded(RECYCLE_DEPTH, None);
            legs[k].xfer_rtl = Some(tx);
            legs[k + 1].refill_rtl = Some(rx);
        }
        ChainArena {
            legs,
            recycle_ltr,
            recycle_rtl,
        }
    }
}

/// The control plane's handle on one spawned worker.
pub(crate) struct WorkerHandle<R, S> {
    pub(crate) handle: JoinHandle<WorkerExit>,
    pub(crate) commands: Sender<WorkerCommand<R, S>>,
    pub(crate) waitset: WaitSet,
}

/// One worker thread: a pipeline node plus its channel endpoints.
pub(crate) struct Worker<R, S> {
    id: usize,
    nodes: usize,
    node: Box<dyn PipelineNode<R, S>>,
    left_rx: Receiver<Frame<R, S>>,
    right_rx: Receiver<Frame<R, S>>,
    to_left: Option<Sender<Frame<R, S>>>,
    to_right: Option<Sender<Frame<R, S>>>,
    /// Command mailbox of the control plane.
    cmd_rx: Receiver<WorkerCommand<R, S>>,
    waitset: WaitSet,
    shared: WorkerShared<R, S>,
    /// A handoff segment that arrived before this worker processed its
    /// `Absorb`/`Retire` command (neighbour ran ahead); consumed by the
    /// command when it executes.
    pending_segment: Option<Handoff<R, S>>,
    idle_wakeups: u64,
    /// Core to pin to on the worker's own stack, first thing in `run`.
    pin_core: Option<usize>,
    /// Arena pools of drained frame buffers, one per direction.  An inner
    /// node is buffer-balanced (each incoming frame is replaced by at most
    /// one outgoing frame the same direction), so a handful of buffers
    /// circulates indefinitely.
    pool_ltr: Vec<Vec<LeftToRight<R>>>,
    pool_rtl: Vec<Vec<RightToLeft<S>>>,
    /// This worker's legs of the chain's arena circulation.
    arena: ArenaLegs<R, S>,
    batch_allocs: u64,
}

impl<R, S> Worker<R, S>
where
    R: Clone + Send + 'static,
    S: Clone + Send + 'static,
{
    /// Spawns a worker thread for position `id` of `nodes`, registering
    /// the wiring's wait set with both inputs and with a fresh command
    /// mailbox.  The wait set arrives pre-made inside `wiring` because
    /// ring inputs already bound it at channel construction (`set_waiter`
    /// then only asserts the binding matches).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        id: usize,
        nodes: usize,
        node: Box<dyn PipelineNode<R, S>>,
        left_rx: Receiver<Frame<R, S>>,
        right_rx: Receiver<Frame<R, S>>,
        to_left: Option<Sender<Frame<R, S>>>,
        to_right: Option<Sender<Frame<R, S>>>,
        shared: WorkerShared<R, S>,
        wiring: WorkerWiring<R, S>,
    ) -> WorkerHandle<R, S> {
        let waitset = wiring.waitset;
        left_rx.set_waiter(&waitset);
        right_rx.set_waiter(&waitset);
        // Command mailboxes stay on the mutex transport, which binds
        // waiters late.
        let (commands, cmd_rx) = unbounded();
        cmd_rx.set_waiter(&waitset);
        let worker = Worker {
            id,
            nodes,
            node,
            left_rx,
            right_rx,
            to_left,
            to_right,
            cmd_rx,
            waitset: waitset.clone(),
            shared,
            pending_segment: None,
            idle_wakeups: 0,
            pin_core: wiring.pin_core,
            pool_ltr: Vec::new(),
            pool_rtl: Vec::new(),
            arena: wiring.arena,
            batch_allocs: 0,
        };
        WorkerHandle {
            handle: thread::spawn(move || worker.run()),
            commands,
            waitset,
        }
    }

    fn run(mut self) -> WorkerExit {
        if let Some(core) = self.pin_core {
            pin_thread(core);
        }
        let mut out: NodeOutput<R, S, ResultTuple<R, S>> = NodeOutput::new();
        // Alternate which input is polled first so neither direction can
        // starve the other under sustained load.
        let mut poll_left_first = true;
        loop {
            // Epoch snapshot before polling (commands included): anything
            // landing between the polls and the park bumps the epoch first,
            // so the wait returns immediately — no lost wake-ups.
            let seen = self.waitset.epoch();
            if let Ok(cmd) = self.cmd_rx.try_recv() {
                if self.execute(cmd) {
                    break;
                }
                continue;
            }
            let frame = if poll_left_first {
                self.left_rx
                    .try_recv()
                    .or_else(|_| self.right_rx.try_recv())
            } else {
                self.right_rx
                    .try_recv()
                    .or_else(|_| self.left_rx.try_recv())
            };
            poll_left_first = !poll_left_first;
            match frame {
                Ok(frame) => self.handle_frame(frame, &mut out),
                Err(_) => {
                    if self.shared.stop.load(Ordering::SeqCst)
                        && self.left_rx.is_empty()
                        && self.right_rx.is_empty()
                        && self.cmd_rx.is_empty()
                    {
                        break;
                    }
                    // Block until either input (or shutdown) notifies the
                    // wait set.  A timed-out park is the only "idle
                    // wake-up" left: it means the safety-net timer fired
                    // with nothing to do.
                    if !self.waitset.wait(seen, WORKER_PARK) {
                        self.idle_wakeups += 1;
                    }
                }
            }
        }
        WorkerExit {
            counters: self.node.node_counters(),
            idle_wakeups: self.idle_wakeups,
            batch_allocs: self.batch_allocs,
        }
    }

    /// Returns a drained left-to-right frame buffer to circulation: flowed
    /// back to the driver when this worker is that direction's sink (the
    /// rightmost node, the only one with a `recycle_ltr` leg), pooled
    /// locally otherwise.  The flow-back ring is best-effort (`try_send`):
    /// a full ring just drops the buffer.
    fn stash_ltr(&mut self, buf: Vec<LeftToRight<R>>) {
        let mut buf = buf;
        // Sink priority: the driver's flow-back ring drains exactly one
        // buffer per entry flush; everything beyond that is surplus.
        if let Some(tx) = &self.arena.recycle_ltr {
            match tx.try_send(buf) {
                Ok(()) => return,
                Err(back) => buf = back,
            }
        }
        if self.pool_ltr.len() < ARENA_POOL {
            self.pool_ltr.push(buf);
            return;
        }
        // Pool full: this node holds more LTR buffers than it will ever
        // spend — pass the surplus one hop towards node 0, the direction's
        // originator (acknowledgement frames start there without a
        // matching incoming buffer).  Best-effort: a full leg just costs
        // the originator one allocation.
        if let Some(tx) = &self.arena.xfer_ltr {
            let _ = tx.try_send(buf);
        }
    }

    /// Same for right-to-left buffers; node 0 is that direction's sink,
    /// the rightmost node its originator (expedition-end markers), and
    /// surplus flows rightward hop by hop.
    fn stash_rtl(&mut self, buf: Vec<RightToLeft<S>>) {
        let mut buf = buf;
        if let Some(tx) = &self.arena.recycle_rtl {
            match tx.try_send(buf) {
                Ok(()) => return,
                Err(back) => buf = back,
            }
        }
        if self.pool_rtl.len() < ARENA_POOL {
            self.pool_rtl.push(buf);
            return;
        }
        if let Some(tx) = &self.arena.xfer_rtl {
            let _ = tx.try_send(buf);
        }
    }

    /// Opportunistic surplus relay, once per handled frame: moves at most
    /// one buffer per direction from the incoming surplus leg into the
    /// local pool, or — pool full — onward to the next hop.  Without this
    /// pump a middle node (whose own pool stays full because its flow is
    /// balanced) would stall the daisy chain: buffers terminating at a
    /// middle home would never reach the end node that keeps allocating.
    fn relay_surplus(&mut self) {
        if let Some(rx) = &self.arena.refill_ltr {
            if let Ok(buf) = rx.try_recv() {
                if self.pool_ltr.len() < ARENA_POOL {
                    self.pool_ltr.push(buf);
                } else if let Some(tx) = &self.arena.xfer_ltr {
                    let _ = tx.try_send(buf);
                }
            }
        }
        if let Some(rx) = &self.arena.refill_rtl {
            if let Ok(buf) = rx.try_recv() {
                if self.pool_rtl.len() < ARENA_POOL {
                    self.pool_rtl.push(buf);
                } else if let Some(tx) = &self.arena.xfer_rtl {
                    let _ = tx.try_send(buf);
                }
            }
        }
    }

    fn take_ltr(&mut self) -> Vec<LeftToRight<R>> {
        if let Some(buf) = self.pool_ltr.pop() {
            return buf;
        }
        if let Some(rx) = &self.arena.refill_ltr {
            if let Ok(mut buf) = rx.try_recv() {
                buf.clear();
                return buf;
            }
        }
        self.batch_allocs += 1;
        Vec::new()
    }

    fn take_rtl(&mut self) -> Vec<RightToLeft<S>> {
        if let Some(buf) = self.pool_rtl.pop() {
            return buf;
        }
        if let Some(rx) = &self.arena.refill_rtl {
            if let Ok(mut buf) = rx.try_recv() {
                buf.clear();
                return buf;
            }
        }
        self.batch_allocs += 1;
        Vec::new()
    }

    /// Processes one data frame: batch dispatch into the node, high-water
    /// mark observation at the pipeline ends, output forwarding (the
    /// complete output of one frame leaves as at most one frame per
    /// direction), result emission, in-flight accounting.  A handoff frame
    /// overtaking its command is stashed instead.
    fn handle_frame(&mut self, frame: Frame<R, S>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        if let MessageBatch::Handoff(handoff) = frame {
            // The neighbour's migration ran ahead of this worker's own
            // command; park the segment for the command to consume.  Not
            // part of the in-flight accounting, so nothing to finish.
            assert!(
                self.pending_segment.is_none(),
                "node {}: second handoff segment before the first was absorbed",
                self.id
            );
            assert!(
                matches!(handoff, Handoff::Segment { .. }),
                "node {}: handoff ack arrived outside a retire wait",
                self.id
            );
            self.pending_segment = Some(handoff);
            return;
        }
        let busy_start = Instant::now();
        let is_leftmost = self.id == 0;
        let is_rightmost = self.id + 1 == self.nodes;
        self.node.observe_time(self.shared.clock.now());
        out.clear();
        // High-water marks advance only *after* this frame's results are
        // in the result queue (see below): the collector reads the marks
        // before vacuuming, so a mark that advanced ahead of its results
        // would let a punctuation overtake them.  `observed` stashes the
        // traversal-end timestamp until the results are safely enqueued.
        let mut observed: Option<(bool, Timestamp)> = None;
        match frame {
            MessageBatch::Left(mut msgs) => {
                // The rightmost node is where R arrivals complete their
                // pipeline traversal; the last arrival of the frame
                // carries the largest timestamp (FIFO order).
                if is_rightmost {
                    observed = msgs
                        .iter()
                        .rev()
                        .find_map(|m| match m {
                            LeftToRight::ArrivalR(r) => Some(r.ts()),
                            _ => None,
                        })
                        .map(|ts| (true, ts));
                }
                self.node.handle_left_batch(&mut msgs, out);
                // The batch contract is to drain; recycle the buffer.
                debug_assert!(msgs.is_empty(), "handle_left_batch must drain its input");
                msgs.clear();
                self.stash_ltr(msgs);
            }
            MessageBatch::Right(mut msgs) => {
                if is_leftmost {
                    observed = msgs
                        .iter()
                        .rev()
                        .find_map(|m| match m {
                            RightToLeft::ArrivalS(s) => Some(s.ts()),
                            _ => None,
                        })
                        .map(|ts| (false, ts));
                }
                self.node.handle_right_batch(&mut msgs, out);
                debug_assert!(msgs.is_empty(), "handle_right_batch must drain its input");
                msgs.clear();
                self.stash_rtl(msgs);
            }
            MessageBatch::Handoff(_) => unreachable!("stashed above"),
        }
        // Results are enqueued *before* the frame is forwarded: a
        // downstream node may otherwise process the forwarded tuples,
        // reach a pipeline end and advance the high-water mark while this
        // node's results for the very same tuples are still local — and a
        // punctuation would overtake them.  (The model suite encodes this
        // ordering; swapping the two blocks fails the checker.)
        if !out.results.is_empty() {
            let detected_at = self.shared.clock.now();
            for result in out.results.drain(..) {
                let _ = self
                    .shared
                    .results
                    .send(TimedResult::new(result, detected_at));
            }
        }
        // The complete output of the frame leaves as at most one frame
        // per direction: this is where per-message channel cost collapses
        // to per-frame cost.
        if !out.to_right.is_empty() {
            if self.to_right.is_some() {
                let replacement = self.take_ltr();
                let msgs = std::mem::replace(&mut out.to_right, replacement);
                let tx = self.to_right.as_ref().expect("checked above");
                send_frame(tx, MessageBatch::Left(msgs), &self.shared.in_flight);
            } else {
                out.to_right.clear();
            }
        }
        if !out.to_left.is_empty() {
            if self.to_left.is_some() {
                let replacement = self.take_rtl();
                let msgs = std::mem::replace(&mut out.to_left, replacement);
                let tx = self.to_left.as_ref().expect("checked above");
                send_frame(tx, MessageBatch::Right(msgs), &self.shared.in_flight);
            } else {
                out.to_left.clear();
            }
        }
        // Only now — with every result of this frame enqueued — may the
        // traversal-end mark advance.  Upstream nodes' results for the
        // same tuples were enqueued even earlier (FIFO chain), so when
        // the collector sees the new mark, every result it promises
        // already sits in a queue (Section 6.1.3 step 1 reads the marks
        // before vacuuming).
        match observed {
            Some((true, ts)) => self.shared.hwm.observe_r(ts),
            Some((false, ts)) => self.shared.hwm.observe_s(ts),
            None => {}
        }
        self.shared
            .busy_ns
            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.relay_surplus();
        self.shared.in_flight.finish();
    }

    /// Executes one scale command.  Returns `true` if the worker retires.
    fn execute(&mut self, cmd: WorkerCommand<R, S>) -> bool {
        match cmd {
            WorkerCommand::Rewire {
                id,
                nodes,
                left_rx,
                right_rx,
                to_left,
                to_right,
                arena,
                done,
            } => {
                self.id = id;
                self.arena = arena;
                self.nodes = nodes;
                self.node
                    .set_position(id, nodes)
                    .expect("elastic workers are spawned with migration-capable nodes");
                if let Some(rx) = left_rx {
                    self.left_rx = rx;
                }
                if let Some(rx) = right_rx {
                    self.right_rx = rx;
                }
                if let Some(tx) = to_left {
                    self.to_left = tx;
                }
                if let Some(tx) = to_right {
                    self.to_right = tx;
                }
                let _ = done.send(ScaleConfirm { migrated_tuples: 0 });
                false
            }
            WorkerCommand::Absorb { from, stall, done } => {
                let migrated = self.absorb_segment(from, stall);
                let _ = done.send(ScaleConfirm {
                    migrated_tuples: migrated,
                });
                false
            }
            WorkerCommand::Shed {
                direction,
                r,
                s,
                done,
            } => {
                self.shed_segment(direction, r, s);
                // The absorbing side reports the moved tuples; a zero here
                // keeps the control plane's per-transfer sum single-counted.
                let _ = done.send(ScaleConfirm { migrated_tuples: 0 });
                false
            }
            WorkerCommand::Census { done } => {
                let (wr, ws) = self.node.window_census();
                let _ = done.send(CensusReport {
                    node: self.id,
                    wr,
                    ws,
                });
                false
            }
            WorkerCommand::ExportAll { done } => {
                let segment = self
                    .node
                    .export_segment()
                    .expect("elastic workers are spawned with migration-capable nodes");
                let _ = done.send(segment);
                false
            }
            WorkerCommand::Install { segment, done } => {
                let migrated = segment.len();
                self.node
                    .install_segment_silent(segment)
                    .expect("elastic workers are spawned with migration-capable nodes");
                let _ = done.send(ScaleConfirm {
                    migrated_tuples: migrated,
                });
                false
            }
            WorkerCommand::Retire {
                absorb_first,
                stall,
            } => {
                if absorb_first {
                    self.absorb_segment(Direction::Right, stall);
                }
                let segment = self
                    .node
                    .export_segment()
                    .expect("elastic workers are spawned with migration-capable nodes");
                let to_left = self
                    .to_left
                    .as_ref()
                    .expect("a retiring node always has a left neighbour");
                let frame = MessageBatch::Handoff(Handoff::Segment {
                    from: self.id,
                    segment,
                });
                assert!(
                    to_left.send(frame).is_ok(),
                    "node {}: segment handoff failed — left neighbour gone",
                    self.id
                );
                self.await_ack(Direction::Left);
                true
            }
        }
    }

    /// Receives one migrated segment from the `from` input (or takes the
    /// stashed one), installs it — emitting any results the installation
    /// produces (the original handshake join matches the still-unmet
    /// direction of a migrated segment) — and acknowledges back towards
    /// `from`.  Returns the number of migrated tuples.
    fn absorb_segment(&mut self, from: Direction, stall: Option<Duration>) -> usize {
        let handoff = match self.pending_segment.take() {
            Some(h) => h,
            None => self.recv_handoff(from),
        };
        let Handoff::Segment {
            from: sender,
            segment,
        } = handoff
        else {
            unreachable!("ack filtered by recv_handoff / stash assertion");
        };
        if let Some(stall) = stall {
            // Test instrumentation: widen the handoff window so teardown
            // tests can deterministically land a shutdown inside it.
            thread::sleep(stall);
        }
        let migrated = segment.len();
        let mut out: NodeOutput<R, S, ResultTuple<R, S>> = NodeOutput::new();
        self.node
            .import_segment(segment, from, &mut out)
            .expect("elastic workers are spawned with migration-capable nodes");
        debug_assert!(
            out.to_left.is_empty() && out.to_right.is_empty(),
            "segment installation must not emit pipeline messages"
        );
        if !out.results.is_empty() {
            let detected_at = self.shared.clock.now();
            for result in out.results.drain(..) {
                let _ = self
                    .shared
                    .results
                    .send(TimedResult::new(result, detected_at));
            }
        }
        let back = match from {
            Direction::Left => &self.to_left,
            Direction::Right => &self.to_right,
        };
        let back = back
            .as_ref()
            .expect("an absorbing node has the shedding neighbour on the segment side");
        let _ = back.send(MessageBatch::Handoff(Handoff::Ack { to: sender }));
        migrated
    }

    /// Exports the plan-assigned window slice and hands it towards
    /// `direction`, blocking until the receiving neighbour acknowledges
    /// the installation — the exactly-once-residence guarantee of a
    /// redistribution hop is the same segment-then-ack protocol a
    /// retirement uses.
    fn shed_segment(&mut self, direction: Direction, r: usize, s: usize) {
        let census = self.node.window_census();
        let (range_r, range_s) = shed_ranges(census, r, s, direction);
        let segment = self
            .node
            .export_segment_range(range_r, range_s)
            .expect("elastic workers are spawned with migration-capable nodes");
        let tx = match direction {
            Direction::Left => &self.to_left,
            Direction::Right => &self.to_right,
        };
        let tx = tx
            .as_ref()
            .expect("the plan only sheds across existing edges");
        let frame = MessageBatch::Handoff(Handoff::Segment {
            from: self.id,
            segment,
        });
        assert!(
            tx.send(frame).is_ok(),
            "node {}: redistribution handoff failed — neighbour gone",
            self.id
        );
        self.await_ack(direction);
    }

    /// Blocks until the neighbour on `side` acknowledges the segment this
    /// node handed over.
    fn await_ack(&mut self, side: Direction) {
        match self.recv_handoff(side) {
            Handoff::Ack { to } => {
                debug_assert_eq!(to, self.id, "ack routed to the wrong node");
            }
            Handoff::Segment { .. } => {
                unreachable!("a node awaiting an ack cannot be handed a segment")
            }
        }
    }

    /// Blocks (through the wait set) until a handoff frame arrives on the
    /// given input.  Only valid while fenced: any data frame here is a
    /// protocol violation.
    fn recv_handoff(&mut self, side: Direction) -> Handoff<R, S> {
        loop {
            let seen = self.waitset.epoch();
            let rx = match side {
                Direction::Left => &self.left_rx,
                Direction::Right => &self.right_rx,
            };
            match rx.try_recv() {
                Ok(MessageBatch::Handoff(handoff)) => return handoff,
                Ok(_) => unreachable!("node {}: data frame during a fenced migration", self.id),
                Err(_) => {
                    self.waitset.wait(seen, WORKER_PARK);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Collector side
// ---------------------------------------------------------------------------

/// Everything the collector thread assembled by the time it exits.
pub(crate) struct CollectorOutcome<R, S> {
    pub(crate) results: Vec<TimedResult<R, S>>,
    pub(crate) output: Vec<OutputItem<TimedResult<R, S>>>,
    pub(crate) latency: LatencySummary,
    pub(crate) series: LatencySeries,
    pub(crate) punctuation_count: u64,
}

/// Collector knobs (a subset of [`crate::options::PipelineOptions`]).
pub(crate) struct CollectorConfig {
    pub(crate) punctuate: bool,
    pub(crate) interval: Duration,
    pub(crate) latency_bucket: u64,
    /// Core to pin the collector thread to, when a [`CoreMap`] is active.
    pub(crate) pin_core: Option<usize>,
}

/// Spawns the collector thread over the chain's result queue (every
/// worker, including ones a later grow spawns, sends into it).
///
/// Step 1 of the paper's Section 6.1.3 is preserved: the high-water marks
/// are read *before* the queue is vacuumed, so every punctuation `p`
/// emitted after a batch of results is a valid promise (no later result
/// can carry a smaller timestamp).  Every collected latency is also fed
/// into the metrics bus's EWMA for the auto-scaler.
pub(crate) fn spawn_collector<R, S>(
    results: Receiver<TimedResult<R, S>>,
    stop: Arc<AtomicBool>,
    stop_signal: WaitSet,
    hwm: Arc<HighWaterMarks>,
    metrics: Arc<MetricsBus>,
    config: CollectorConfig,
) -> JoinHandle<CollectorOutcome<R, S>>
where
    R: Clone + Send + 'static,
    S: Clone + Send + 'static,
{
    thread::spawn(move || {
        if let Some(core) = config.pin_core {
            pin_thread(core);
        }
        let mut outcome = CollectorOutcome {
            results: Vec::new(),
            output: Vec::new(),
            latency: LatencySummary::new(),
            series: LatencySeries::new(config.latency_bucket),
            punctuation_count: 0,
        };
        loop {
            let seen = stop_signal.epoch();
            let stopping = stop.load(Ordering::SeqCst);
            // Step 1 (Section 6.1.3): read the high-water marks before
            // vacuuming the queue.
            let safe = hwm.safe_punctuation();
            let mut drained_any = false;
            while let Ok(timed) = results.try_recv() {
                drained_any = true;
                let latency = timed.latency();
                outcome.latency.record(latency);
                outcome.series.record(timed.detected_at, latency);
                metrics.observe_latency(latency);
                if config.punctuate {
                    outcome.output.push(OutputItem::Result(timed.clone()));
                }
                outcome.results.push(timed);
            }
            if config.punctuate && drained_any {
                outcome
                    .output
                    .push(OutputItem::Punctuation(Punctuation { ts: safe }));
                outcome.punctuation_count += 1;
            }
            if stopping && !drained_any {
                break;
            }
            // The vacuum period doubles as the park timeout; the driver's
            // shutdown notification cuts it short so the final drain
            // starts immediately.
            stop_signal.wait(seen, config.interval);
        }
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_micros_states_the_degenerate_cases() {
        assert_eq!(saturating_micros(f64::NAN), 0);
        assert_eq!(saturating_micros(-1.0), 0);
        assert_eq!(saturating_micros(0.0), 0);
        assert_eq!(saturating_micros(f64::INFINITY), u64::MAX);
        assert_eq!(saturating_micros(1e300), u64::MAX);
        assert_eq!(saturating_micros(2.5), 2_500_000);
    }

    #[test]
    fn frozen_clock_for_non_positive_speedup() {
        let clock = StreamClock::new(Pacing::RealTime { speedup: -3.0 });
        thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now(), Timestamp::ZERO);
    }
}

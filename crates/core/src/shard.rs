//! Key-partitioned shard mesh: routing, split/merge maps and frontier
//! merging.
//!
//! A single handshake-join chain scales *within* itself by adding nodes,
//! but every tuple still traverses one pipeline.  The mesh adds a second
//! scaling axis: the key space is hashed over `N` independent elastic
//! chains ("shards"), each with its own collector, and the per-shard
//! punctuated output streams are merged into one global stream whose
//! punctuation is the minimum over the shard frontiers.
//!
//! This module is substrate-agnostic — it contains only the pure pieces
//! shared by the threaded runtime mesh (`llhj-runtime`) and its
//! deterministic simulator mirror (`llhj-sim`):
//!
//! * [`mix64`] and [`ShardMap`] — the power-of-two hash partitioning.
//!   Splits *double* the shard count and merges halve it, so a tuple that
//!   hashed to shard `i` under `N` shards hashes to `i` or `i + N` under
//!   `2N`: a split only ever moves state from a parent to its one child,
//!   never across unrelated shards.
//! * [`RouteMode`] and [`ShardRouter`] — which shard(s) each
//!   [`StreamEvent`] visits.  Equi-joins co-partition both streams by the
//!   join key; keyless predicates (bands) fall back to
//!   fragment-and-replicate, where R is partitioned by sequence number and
//!   S is broadcast so every `(r, s)` pair is examined in exactly the
//!   shard owning `r`.
//! * [`merge_punctuated_streams`] — the frontier merge that turns `N`
//!   individually valid punctuated streams into one valid, monotone
//!   stream.
//! * [`MeshPlan`] / [`MeshStep`] — the deterministic steering plan both
//!   substrates honour.

use crate::driver::StreamEvent;
use crate::message::WindowSegment;
use crate::predicate::JoinPredicate;
use crate::punctuation::OutputItem;
use crate::time::Timestamp;
use crate::tuple::SeqNo;

/// Finalizer-style 64-bit mixer (the `splitmix64` output function).
///
/// Join keys are often small consecutive integers; taking the low bits
/// directly would map whole key ranges to shard 0.  The mixer spreads
/// every input bit over the output so the power-of-two mask of
/// [`ShardMap`] sees uniform bits.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Power-of-two hash partitioning of the key space over shards.
///
/// The shard of a hash is `hash & mask`.  Keeping the shard count a power
/// of two makes resharding *local*: growing from `N` to `2N` shards adds
/// one mask bit, so the tuples of shard `i` split between `i` (bit clear)
/// and `i + N` (bit set) and no other shard is touched; shrinking removes
/// the bit and folds `i + N` back into `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    mask: u64,
}

impl ShardMap {
    /// A map over `shards` shards; `shards` must be a non-zero power of
    /// two.
    pub fn new(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        ShardMap {
            mask: shards as u64 - 1,
        }
    }

    /// Current number of shards.
    pub fn shards(&self) -> usize {
        self.mask as usize + 1
    }

    /// The shard owning `hash`.
    pub fn shard_of(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    /// Doubles the shard count.  Shard `i`'s keys split between `i` and
    /// `i + old_count`.
    pub fn split(&mut self) {
        self.mask = (self.mask << 1) | 1;
    }

    /// Halves the shard count.  Shard `i + new_count` folds into `i`.
    pub fn merge(&mut self) {
        assert!(self.shards() > 1, "cannot merge a single shard");
        self.mask >>= 1;
    }

    /// The child shard that receives the moving half of `parent` when
    /// this (already split) map doubled from `shards() / 2` shards.
    pub fn child_of(&self, parent: usize) -> usize {
        parent + self.shards() / 2
    }
}

/// How stream events are distributed over the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// Both streams are hashed by their join key ([`JoinPredicate::r_key`]
    /// / [`JoinPredicate::s_key`]): matching tuples land in the same shard
    /// by construction.  Requires a predicate with both key extractors
    /// (equi-joins).
    CoPartition,
    /// Keyless fallback (band joins): R is partitioned by a hash of its
    /// sequence number, S (and S expiries) are broadcast to every shard.
    /// Each `(r, s)` pair is examined in exactly one shard — the one
    /// owning `r` — so the union of shard outputs has no duplicates.
    FragmentReplicate,
}

impl RouteMode {
    /// Picks the mode a predicate supports: co-partitioning when both key
    /// extractors exist, fragment-and-replicate otherwise.
    pub fn for_predicate<R, S, P: JoinPredicate<R, S>>(predicate: &P) -> RouteMode {
        if predicate.supports_index() {
            RouteMode::CoPartition
        } else {
            RouteMode::FragmentReplicate
        }
    }
}

/// The shard(s) one stream event must visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Deliver to exactly this shard.
    One(usize),
    /// Broadcast to every shard (fragment-replicate S side).
    All,
}

impl Route {
    /// The target shard indices, given the current shard count.
    pub fn targets(self, shards: usize) -> impl Iterator<Item = usize> {
        let (one, all) = match self {
            Route::One(i) => (Some(i), None),
            Route::All => (None, Some(0..shards)),
        };
        one.into_iter().chain(all.into_iter().flatten())
    }
}

/// Routes a driver schedule's events across the shards of a mesh and
/// remembers, per sequence number, the hash that placed each tuple.
///
/// Recording the full 64-bit hash (rather than the shard index) is what
/// makes expiries and resharding cheap: the route of a past tuple under
/// *any* shard count is `hash & mask`, so a split or merge never rewrites
/// the table — it just changes the mask consulted on the next lookup.
#[derive(Debug)]
pub struct ShardRouter<R, S, P> {
    predicate: P,
    mode: RouteMode,
    map: ShardMap,
    /// Hash of R tuple `seq`, indexed densely by `seq.0`.
    r_hash: Vec<u64>,
    /// Hash of S tuple `seq` (co-partition mode only).
    s_hash: Vec<u64>,
    _marker: std::marker::PhantomData<fn() -> (R, S)>,
}

impl<R, S, P: JoinPredicate<R, S>> ShardRouter<R, S, P> {
    /// Creates a router over `shards` shards (a non-zero power of two).
    pub fn new(predicate: P, mode: RouteMode, shards: usize) -> Self {
        ShardRouter {
            predicate,
            mode,
            map: ShardMap::new(shards),
            r_hash: Vec::new(),
            s_hash: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Current number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The routing mode in force.
    pub fn mode(&self) -> RouteMode {
        self.mode
    }

    /// The current shard map.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Routes one stream event, recording arrival hashes so that later
    /// expiries (and reshardings) find the tuple's owner.
    pub fn route(&mut self, event: &StreamEvent<R, S>) -> Route {
        match event {
            StreamEvent::ArrivalR(t) => {
                let hash = match self.mode {
                    RouteMode::CoPartition => mix64(
                        self.predicate
                            .r_key(&t.payload)
                            .expect("co-partitioned mesh requires r_key"),
                    ),
                    RouteMode::FragmentReplicate => mix64(t.seq.0),
                };
                record(&mut self.r_hash, t.seq, hash);
                Route::One(self.map.shard_of(hash))
            }
            StreamEvent::ArrivalS(t) => match self.mode {
                RouteMode::CoPartition => {
                    let hash = mix64(
                        self.predicate
                            .s_key(&t.payload)
                            .expect("co-partitioned mesh requires s_key"),
                    );
                    record(&mut self.s_hash, t.seq, hash);
                    Route::One(self.map.shard_of(hash))
                }
                RouteMode::FragmentReplicate => Route::All,
            },
            StreamEvent::ExpireR(seq) => Route::One(self.shard_of_r(*seq)),
            StreamEvent::ExpireS(seq) => match self.mode {
                RouteMode::CoPartition => Route::One(self.shard_of_s(*seq)),
                RouteMode::FragmentReplicate => Route::All,
            },
        }
    }

    /// The shard currently owning the R tuple with sequence number `seq`.
    pub fn shard_of_r(&self, seq: SeqNo) -> usize {
        self.map.shard_of(self.r_hash[seq.0 as usize])
    }

    /// The shard currently owning the S tuple `seq` (co-partition only).
    pub fn shard_of_s(&self, seq: SeqNo) -> usize {
        self.map.shard_of(self.s_hash[seq.0 as usize])
    }

    /// Re-records the placement hash of a recovered R tuple.
    ///
    /// A crashed router's hash tables die with it, but they are fully
    /// reconstructible: every resident tuple survives in some shard's
    /// checkpointed [`WindowSegment`], and the hash is a pure function of
    /// the routing mode (join key under co-partitioning, sequence number
    /// under fragment-replicate).  Recovery walks the checkpointed rows
    /// through this method so post-recovery expiries and reshardings find
    /// their owners exactly as before the crash.
    pub fn reseed_r(&mut self, seq: SeqNo, payload: &R) {
        let hash = match self.mode {
            RouteMode::CoPartition => mix64(
                self.predicate
                    .r_key(payload)
                    .expect("co-partitioned mesh requires r_key"),
            ),
            RouteMode::FragmentReplicate => mix64(seq.0),
        };
        record(&mut self.r_hash, seq, hash);
    }

    /// Re-records the placement hash of a recovered S tuple; see
    /// [`ShardRouter::reseed_r`].  A no-op under fragment-replicate, where
    /// S is broadcast and no table is kept.
    pub fn reseed_s(&mut self, seq: SeqNo, payload: &S) {
        if self.mode == RouteMode::CoPartition {
            let hash = mix64(
                self.predicate
                    .s_key(payload)
                    .expect("co-partitioned mesh requires s_key"),
            );
            record(&mut self.s_hash, seq, hash);
        }
    }

    /// Doubles the shard count.  Call *before* partitioning the parents'
    /// exported state with [`ShardRouter::split_segment`].
    pub fn split(&mut self) {
        self.map.split();
    }

    /// Halves the shard count.
    pub fn merge(&mut self) {
        self.map.merge();
    }

    /// Partitions one exported parent-node segment between the parent
    /// shard and its split child under the (already doubled) map.
    ///
    /// R rows follow their recorded hash.  S rows follow theirs under
    /// co-partitioning; under fragment-replicate the S window is a
    /// broadcast copy, so the child receives a clone and the parent keeps
    /// the original.
    pub fn split_segment(
        &self,
        parent: usize,
        segment: WindowSegment<R, S>,
    ) -> (WindowSegment<R, S>, WindowSegment<R, S>)
    where
        R: Clone,
        S: Clone,
    {
        let child = self.map.child_of(parent);
        let mut keep = WindowSegment::empty();
        let mut moved = WindowSegment::empty();
        for r in segment.wr {
            let to = self.map.shard_of(self.r_hash[r.seq.0 as usize]);
            debug_assert!(
                to == parent || to == child,
                "split of shard {parent} scattered an R row to shard {to}"
            );
            if to == parent {
                keep.wr.push(r);
            } else {
                moved.wr.push(r);
            }
        }
        match self.mode {
            RouteMode::CoPartition => {
                for s in segment.ws {
                    let to = self.map.shard_of(self.s_hash[s.seq.0 as usize]);
                    debug_assert!(
                        to == parent || to == child,
                        "split of shard {parent} scattered an S row to shard {to}"
                    );
                    if to == parent {
                        keep.ws.push(s);
                    } else {
                        moved.ws.push(s);
                    }
                }
            }
            RouteMode::FragmentReplicate => {
                moved.ws = segment.ws.clone();
                keep.ws = segment.ws;
            }
        }
        (keep, moved)
    }

    /// Prepares a child-node segment for installation into the parent on a
    /// shard merge.  Under fragment-replicate the child's S rows are
    /// broadcast copies of the parent's own — installing them again would
    /// double the S window and duplicate results — so they are dropped;
    /// under co-partitioning the key spaces were disjoint and everything
    /// moves.
    pub fn merge_segment(&self, mut segment: WindowSegment<R, S>) -> WindowSegment<R, S> {
        if self.mode == RouteMode::FragmentReplicate {
            segment.ws.clear();
        }
        segment
    }
}

fn record(table: &mut Vec<u64>, seq: SeqNo, hash: u64) {
    let idx = seq.0 as usize;
    if table.len() <= idx {
        table.resize(idx + 1, 0);
    }
    table[idx] = hash;
}

/// Merges `N` individually valid punctuated streams into one valid,
/// monotone punctuated stream (the mesh's global output).
///
/// Each input stream `i` maintains a *frontier* `f_i` — the value of its
/// latest consumed punctuation, `0` initially and `∞` once the stream is
/// exhausted.  The merge repeatedly picks the non-exhausted stream with
/// the smallest frontier (ties to the lowest index) and consumes it up to
/// and including its next punctuation (or to its end), then emits a
/// global punctuation `g = min_i f_i` whenever that minimum rose.
///
/// *Validity*: a result consumed from stream `i` follows `i`'s latest
/// punctuation, so its timestamp is `>= f_i`; `i` was the minimum, so
/// `f_i >= g` for every global punctuation `g` emitted so far.
/// *Monotonicity*: `g` is only emitted when it rises.
pub fn merge_punctuated_streams<T>(streams: Vec<Vec<OutputItem<T>>>) -> Vec<OutputItem<T>> {
    let n = streams.len();
    let mut streams: Vec<std::vec::IntoIter<OutputItem<T>>> =
        streams.into_iter().map(Vec::into_iter).collect();
    // `None` = exhausted (frontier ∞).
    let mut frontiers: Vec<Option<Timestamp>> = vec![Some(Timestamp::ZERO); n];
    let mut out = Vec::new();
    let mut emitted = Timestamp::ZERO;
    while let Some(i) = frontiers
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.map(|ts| (i, ts)))
        .min_by_key(|&(i, ts)| (ts, i))
        .map(|(i, _)| i)
    {
        // Consume stream i up to and including its next punctuation.
        let mut advanced = false;
        for item in streams[i].by_ref() {
            match item {
                OutputItem::Result(_) => out.push(item),
                OutputItem::Punctuation(p) => {
                    frontiers[i] = Some(p.ts);
                    advanced = true;
                    break;
                }
            }
        }
        if !advanced {
            // No punctuation left: trailing results were just drained.
            frontiers[i] = None;
        }
        let global = frontiers.iter().flatten().copied().min();
        if let Some(g) = global {
            if g > emitted {
                emitted = g;
                out.push(OutputItem::Punctuation(crate::punctuation::Punctuation {
                    ts: g,
                }));
            }
        }
    }
    out
}

/// One step of a deterministic mesh steering plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshStep {
    /// Apply this step once the router has consumed this many schedule
    /// events.
    pub after_events: usize,
    /// Target shard count (a non-zero power of two; reached by repeated
    /// splits or merges).
    pub shards: usize,
    /// Target per-shard chain width.
    pub width: usize,
}

/// A deterministic reshaping plan, honoured identically by the threaded
/// mesh and its simulator mirror — the mesh analogue of a single chain's
/// `ScalePlan`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeshPlan {
    /// Steps in increasing `after_events` order.
    pub steps: Vec<MeshStep>,
}

impl MeshPlan {
    /// A plan with no reshaping.
    pub fn none() -> Self {
        MeshPlan::default()
    }

    /// A plan from `(after_events, shards, width)` triples.
    pub fn from_steps(steps: &[(usize, usize, usize)]) -> Self {
        let steps = steps
            .iter()
            .map(|&(after_events, shards, width)| MeshStep {
                after_events,
                shards,
                width,
            })
            .collect();
        MeshPlan { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{EquiPredicate, FnPredicate};
    use crate::punctuation::{verify_punctuated_stream, Punctuation};
    use crate::tuple::StreamTuple;

    fn r_tuple(seq: u64, key: u64) -> StreamTuple<u64> {
        StreamTuple::new(SeqNo(seq), Timestamp::from_millis(seq), key)
    }

    #[test]
    fn shard_map_split_is_local_and_merge_inverts_it() {
        let mut map = ShardMap::new(4);
        let hashes: Vec<u64> = (0..256u64).map(mix64).collect();
        let before: Vec<usize> = hashes.iter().map(|&h| map.shard_of(h)).collect();
        map.split();
        assert_eq!(map.shards(), 8);
        for (&h, &old) in hashes.iter().zip(&before) {
            let new = map.shard_of(h);
            assert!(
                new == old || new == old + 4,
                "hash moved from shard {old} to unrelated shard {new}"
            );
            assert_eq!(map.child_of(old), old + 4);
        }
        map.merge();
        let after: Vec<usize> = hashes.iter().map(|&h| map.shard_of(h)).collect();
        assert_eq!(before, after, "merge must undo the split exactly");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shard_map_rejects_non_power_of_two() {
        let _ = ShardMap::new(3);
    }

    #[test]
    fn co_partition_routes_matching_keys_to_the_same_shard() {
        let pred = EquiPredicate::new(|r: &u64| *r, |s: &u64| *s);
        assert_eq!(RouteMode::for_predicate(&pred), RouteMode::CoPartition);
        let mut router = ShardRouter::new(pred, RouteMode::CoPartition, 4);
        for key in 0..64u64 {
            let r = router.route(&StreamEvent::ArrivalR(r_tuple(key, key)));
            let s = router.route(&StreamEvent::<u64, u64>::ArrivalS(r_tuple(key, key)));
            assert_eq!(r, s, "equal keys must co-locate");
            // Expiries follow the recorded hash to the same shard.
            assert_eq!(router.route(&StreamEvent::ExpireR(SeqNo(key))), r);
            assert_eq!(router.route(&StreamEvent::ExpireS(SeqNo(key))), s);
        }
    }

    #[test]
    fn fragment_replicate_broadcasts_s_and_partitions_r() {
        let pred = FnPredicate(|r: &u64, s: &u64| r.abs_diff(*s) <= 1);
        assert_eq!(
            RouteMode::for_predicate(&pred),
            RouteMode::FragmentReplicate
        );
        let mut router = ShardRouter::new(pred, RouteMode::FragmentReplicate, 4);
        let mut seen = [false; 4];
        for seq in 0..64u64 {
            match router.route(&StreamEvent::ArrivalR(r_tuple(seq, seq))) {
                Route::One(i) => seen[i] = true,
                Route::All => panic!("R must not broadcast"),
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "seq hashing should reach all shards"
        );
        let s_route = router.route(&StreamEvent::<u64, u64>::ArrivalS(r_tuple(0, 0)));
        assert_eq!(s_route, Route::All);
        assert_eq!(s_route.targets(4).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(router.route(&StreamEvent::ExpireS(SeqNo(0))), Route::All);
        // R expiries still go to the one shard owning the tuple.
        assert!(matches!(
            router.route(&StreamEvent::ExpireR(SeqNo(7))),
            Route::One(_)
        ));
    }

    #[test]
    fn split_segment_partitions_r_by_hash_and_replicates_s_for_bands() {
        let pred = FnPredicate(|r: &u64, s: &u64| r == s);
        let mut router = ShardRouter::new(pred, RouteMode::FragmentReplicate, 1);
        let mut wr = Vec::new();
        for seq in 0..32u64 {
            router.route(&StreamEvent::ArrivalR(r_tuple(seq, seq)));
            wr.push(r_tuple(seq, seq));
        }
        let ws = vec![r_tuple(100, 100), r_tuple(101, 101)];
        router.split();
        let (keep, moved) = router.split_segment(0, WindowSegment { wr, ws: ws.clone() });
        assert_eq!(keep.wr.len() + moved.wr.len(), 32);
        assert!(!keep.wr.is_empty() && !moved.wr.is_empty());
        for r in &keep.wr {
            assert_eq!(router.shard_of_r(r.seq), 0);
        }
        for r in &moved.wr {
            assert_eq!(router.shard_of_r(r.seq), 1);
        }
        // Band mode: both halves carry the full broadcast S window...
        assert_eq!(keep.ws, ws);
        assert_eq!(moved.ws, ws);
        // ...and a later merge drops the child's copy again.
        let merged = router.merge_segment(moved);
        assert!(merged.ws.is_empty());
        assert!(!merged.wr.is_empty());
    }

    #[test]
    fn split_segment_partitions_both_sides_under_co_partitioning() {
        let pred = EquiPredicate::new(|r: &u64| *r, |s: &u64| *s);
        let mut router = ShardRouter::new(pred, RouteMode::CoPartition, 2);
        let mut wr = Vec::new();
        let mut ws = Vec::new();
        for key in 0..48u64 {
            let t = r_tuple(key, key);
            // Keep only shard 0's residents, mirroring one parent node.
            if router.route(&StreamEvent::ArrivalR(t.clone())) == Route::One(0) {
                wr.push(t.clone());
                ws.push(t.clone());
            }
            router.route(&StreamEvent::<u64, u64>::ArrivalS(t));
        }
        router.split();
        let (keep, moved) = router.split_segment(0, WindowSegment { wr, ws });
        // Co-partitioning: R and S of the same key travel together.
        let keep_keys: Vec<u64> = keep.wr.iter().map(|t| t.seq.0).collect();
        let keep_s: Vec<u64> = keep.ws.iter().map(|t| t.seq.0).collect();
        assert_eq!(keep_keys, keep_s);
        let moved_keys: Vec<u64> = moved.wr.iter().map(|t| t.seq.0).collect();
        let moved_s: Vec<u64> = moved.ws.iter().map(|t| t.seq.0).collect();
        assert_eq!(moved_keys, moved_s);
        assert!(
            !moved_keys.is_empty(),
            "a 2-way split should move something"
        );
    }

    #[test]
    fn reseeded_router_recovers_the_routes_of_a_crashed_one() {
        let pred = EquiPredicate::new(|r: &u64| *r, |s: &u64| *s);
        let mut original = ShardRouter::new(pred.clone(), RouteMode::CoPartition, 4);
        let mut fr_original = ShardRouter::new(
            FnPredicate(|r: &u64, s: &u64| r == s),
            RouteMode::FragmentReplicate,
            4,
        );
        for key in 0..64u64 {
            original.route(&StreamEvent::ArrivalR(r_tuple(key, key * 7)));
            original.route(&StreamEvent::<u64, u64>::ArrivalS(r_tuple(key, key * 3)));
            fr_original.route(&StreamEvent::ArrivalR(r_tuple(key, key)));
        }
        // A recovered router sees only the checkpointed rows, not the
        // original arrival events.
        let mut recovered = ShardRouter::new(pred, RouteMode::CoPartition, 4);
        let mut fr_recovered = ShardRouter::new(
            FnPredicate(|r: &u64, s: &u64| r == s),
            RouteMode::FragmentReplicate,
            4,
        );
        for key in 0..64u64 {
            recovered.reseed_r(SeqNo(key), &(key * 7));
            recovered.reseed_s(SeqNo(key), &(key * 3));
            fr_recovered.reseed_r(SeqNo(key), &key);
        }
        for key in 0..64u64 {
            assert_eq!(
                recovered.shard_of_r(SeqNo(key)),
                original.shard_of_r(SeqNo(key))
            );
            assert_eq!(
                recovered.shard_of_s(SeqNo(key)),
                original.shard_of_s(SeqNo(key))
            );
            assert_eq!(
                fr_recovered.shard_of_r(SeqNo(key)),
                fr_original.shard_of_r(SeqNo(key))
            );
        }
    }

    fn result(ts: u64) -> OutputItem<u64> {
        OutputItem::Result(ts)
    }

    fn punct(ts: u64) -> OutputItem<u64> {
        OutputItem::Punctuation(Punctuation {
            ts: Timestamp::from_millis(ts),
        })
    }

    #[test]
    fn frontier_merge_is_valid_monotone_and_lossless() {
        let streams = vec![
            vec![result(1), punct(2), result(5), punct(9), result(12)],
            vec![result(2), punct(4), result(4), result(7), punct(7)],
            vec![punct(10), result(11)],
        ];
        let merged = merge_punctuated_streams(streams);
        verify_punctuated_stream(&merged, |&ts| Timestamp::from_millis(ts))
            .expect("merged stream must stay valid");
        let mut results: Vec<u64> = merged
            .iter()
            .filter_map(|i| i.as_result().copied())
            .collect();
        results.sort_unstable();
        assert_eq!(results, vec![1, 2, 4, 5, 7, 11, 12]);
        let puncts: Vec<Timestamp> = merged
            .iter()
            .filter_map(|i| i.as_punctuation())
            .map(|p| p.ts)
            .collect();
        assert!(puncts.windows(2).all(|w| w[0] < w[1]));
        // Exhausted streams stop constraining the frontier (they can emit
        // nothing further), so the merge ends at stream 2's final mark.
        assert_eq!(puncts.last(), Some(&Timestamp::from_millis(10)));
    }

    #[test]
    fn frontier_merge_handles_empty_and_punctuation_free_streams() {
        let merged = merge_punctuated_streams::<u64>(vec![vec![], vec![result(3), result(1)]]);
        let results: Vec<u64> = merged
            .iter()
            .filter_map(|i| i.as_result().copied())
            .collect();
        assert_eq!(results, vec![3, 1], "order within one stream is preserved");
        assert!(merged.iter().all(|i| i.as_punctuation().is_none()));
        assert!(merge_punctuated_streams::<u64>(Vec::new()).is_empty());
    }
}

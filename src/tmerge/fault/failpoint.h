#ifndef TMERGE_FAULT_FAILPOINT_H_
#define TMERGE_FAULT_FAILPOINT_H_

#include "tmerge/fault/registry.h"

// Failpoint sites. A site names a failure the library promises to tolerate
// and passes a 64-bit key identifying the logical operation, so the
// injected schedule is a pure function of (seed, name, key) — identical at
// any thread count (see registry.h).
//
// Catalog of shipped failpoints (DESIGN.md "Fault model & degraded mode"):
//   reid.embed          one ReID forward pass errors (transient)
//   reid.latency        one ReID forward pass suffers a simulated latency
//                       spike (charged to the cost model, never slept)
//   reid.cache.evict    a cached feature is dropped before lookup (the
//                       reuse optimization loses an entry)
//   reid.cache.miss     a lookup is forced to miss without eviction (a
//                       re-embed is charged; the entry is refreshed)
//   reid.embed.batch_fail
//                       one EmbedScheduler batched dispatch fails whole:
//                       the launch cost is charged as a penalty and the
//                       batch's crops retry on the single path under a
//                       fresh salt (keyed first detection id ^ batch index
//                       ^ salt, so the schedule is group-content-
//                       deterministic across camera interleaves)
//   reid.sched.defer    one EmbedScheduler batch's dispatch is pushed
//                       behind the rest of its group (commit order, and
//                       therefore results and charges, are unaffected)
//   io.mot.short_read   a MOT reader's input ends mid-stream
//   io.mot.corrupt_row  a MOT reader row arrives corrupted
//   core.pool.submit    ThreadPool::Submit rejects the task
//   stream.camera.drop_frame
//                       a camera frame is lost in transport: its
//                       detections vanish but stream time still advances
//                       (keyed (camera_id << 32) | frame, so a retried
//                       frame gets the same verdict)
//   stream.director.defer
//                       the MergeDirector defers an otherwise-admissible
//                       merge job (scheduler hiccup; never consulted in
//                       force-flush mode, so Finish cannot wedge)

/// True when the armed failpoint `name` fires for operation `key`.
/// Evaluates to false (one relaxed load) when nothing is armed.
#define TMERGE_FAILPOINT(name, key)                        \
  (::tmerge::fault::GlobalRegistry().AnyArmed() &&         \
   ::tmerge::fault::GlobalRegistry().ShouldFail((name), (key)))

/// Simulated latency-spike seconds for operation `key` (0.0 when disarmed
/// or not fired). The caller charges the result to its cost model.
#define TMERGE_FAILPOINT_LATENCY(name, key)                \
  (::tmerge::fault::GlobalRegistry().AnyArmed()            \
       ? ::tmerge::fault::GlobalRegistry().LatencySpike((name), (key)) \
       : 0.0)

#endif  // TMERGE_FAULT_FAILPOINT_H_

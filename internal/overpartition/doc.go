// Package overpartition implements parallel sorting by over-partitioning
// (Li & Sevcik 1994), the §4.2 baseline: sample k·p−1 splitters to cut
// the input into k·p buckets — k× more than processors — then assign
// whole buckets to processors, largest first, so bucket-size variance
// averages out without accurate splitters.
//
// The original is a shared-memory algorithm whose processors pull buckets
// off a size-ordered task queue; the paper notes "it is not immediately
// clear how to extend the idea of task queues for a distributed cluster".
// Our distributed rendering makes the one scheduling decision the queue
// would make — longest-processing-time (LPT) assignment of buckets to
// processors — centrally after one histogram of the sampled splitters.
// That is random sample sort into k·p buckets plus the LPT map, run as a
// strategy of core's sort skeleton, whose exchange routes by the map.
// Bucket placement is therefore non-contiguous: each rank's output is
// sorted, but rank order does not follow key order (as with §6.3's
// virtual processors).
package overpartition

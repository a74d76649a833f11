package hssort

import "hssort/internal/core"

// Stats reports one sort run: the paper's quantities (rounds and sample
// per round, Fig 6.1's phase times, §5.1's byte terms) and the engine's
// own counters. It is core's record, re-exported, so the sort fills the
// very struct callers read; the field docs are at
// go doc hssort/internal/core.Stats. Stats.Snapshot flattens it for the
// wire, and its JSON is that snapshot.
type Stats = core.Stats

// StatsSnapshot is the serialization-ready view of Stats: every field
// flattened into JSON-tagged scalars, durations in integer nanoseconds,
// and the end-to-end total precomputed. hssortd's job status responses
// and /metrics aggregation are built on it, and cmd/hssort -digest
// prints one. It is core's, re-exported; the field docs are at
// go doc hssort/internal/core.StatsSnapshot.
type StatsSnapshot = core.StatsSnapshot

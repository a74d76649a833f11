// Package server is the sort-as-a-service layer behind cmd/hssortd: a
// long-lived HTTP daemon front end over the hssort Sorter engine.
//
// Clients submit named sort jobs (POST /v1/jobs — int64/uint64/float64
// or variable-length byte-string keys, optionally with record payloads
// in tow) under a tenant ID; the daemon runs them on a pool of warm
// Sorter engines (one per key-type×shape, built lazily, kept hot so
// repeated sorts reuse the engine's transport, worker goroutines and
// scratch) and answers job-status, sorted-shard and rank/percentile
// queries (GET /v1/jobs/{id}, GET /v1/datasets/{name}/rank).
//
// The scheduler between the HTTP layer and the engines provides the
// multi-tenant guarantees a shared daemon needs: a bounded FIFO
// admission queue (submissions beyond it are refused with a typed
// *QuotaExceededError, HTTP 429), per-tenant concurrency quotas
// with fair round-robin dequeue across tenants, and per-job deadlines
// and cancellation riding the engine's context plumbing — a canceled or
// deadline-expired job aborts mid-phase on every rank and the engine
// returns to the pool warm and usable.
//
// Recurring tenants hit the plan cache: each dataset is fingerprinted
// by a cheap distribution sketch (sorted-sample quantiles, after
// "Adaptive Sampling for Rapidly Matching Histograms"), and a cached
// splitter Plan for (tenant, fingerprint) seeds the job's one engine
// call (Sorter.SortSeeded): while the plan still meets 1+ε on the new
// data the sort skips histogram determination entirely — zero rounds,
// the regime Yang/Harsh/Solomonik 2022 shows amortizes splitter
// determination across repeated sorts. Fingerprint collisions are safe
// and self-healing: a seed that does not fit is refined by the sort
// itself, starting from the histogram that rejected it, and the refined
// plan replaces it in the cache, so the next such job hits.
//
// The key path stays off encoding/json in both directions: a submission
// is read once into a pooled buffer and walked once, its key array
// scanned by the key type's own scanner straight into the slice the
// engine shards (request.go), and a finished job's result streams from
// the sorted shards through a pooled chunk buffer (reply.go), byte for
// byte what encoding/json would write. Finished jobs keep their output,
// never their input.
//
// GET /metrics exposes the aggregated per-sort hssort.Stats (rounds,
// achieved epsilon, exchange bytes, plan cache hits/misses/replans,
// queue depth, per-tenant job counts) in Prometheus text format;
// GET /healthz reports liveness and flips to 503 while draining.
// docs/API.md specifies the HTTP surface.
package server

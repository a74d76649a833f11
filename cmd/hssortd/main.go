// Command hssortd serves hssort over HTTP: a long-lived daemon that
// accepts named sort jobs from multiple tenants, runs them on a pool of
// warm sort engines, and answers rank/percentile queries against the
// sorted outputs. See docs/API.md for the HTTP surface.
//
// Usage:
//
//	hssortd -listen :8080 -transport inproc -shards 4
//
// The daemon drains on SIGINT/SIGTERM: admission stops (healthz flips
// to 503), admitted jobs finish, engines tear down, then it exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"hssort"
	"hssort/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hssortd: ")

	var (
		listen        = flag.String("listen", ":8080", "HTTP listen address (host:port; :0 picks a free port)")
		transportName = flag.String("transport", "inproc", "engine communication backend: sim, inproc or tcp")
		shards        = flag.Int("shards", 4, "engine shard (simulated processor) count per job")
		workers       = flag.Int("workers", 1, "per-rank compute workers per engine (1 = serial)")
		eps           = flag.Float64("eps", 0.05, "load-imbalance threshold epsilon")
		queue         = flag.Int("queue", 64, "admission queue depth (full queue refuses with 429)")
		tenantJobs    = flag.Int("tenant-jobs", 2, "max simultaneously running jobs per tenant")
		concurrency   = flag.Int("concurrency", 4, "max simultaneously running jobs daemon-wide")
		planCache     = flag.Int("plan-cache", 128, "splitter-plan cache capacity (entries)")
		maxKeys       = flag.Int("max-keys", 0, "per-job key limit (0 = unlimited; above it refuses with 413)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (hssortd takes flags only)", flag.Arg(0))
	}

	transport, err := hssort.ParseTransport(*transportName)
	if err != nil {
		log.Fatal(err)
	}
	if *shards < 2 {
		log.Fatalf("-shards %d out of range (valid values: 2 or more)", *shards)
	}
	if *eps <= 0 || *eps >= 1 {
		log.Fatalf("-eps %g out of range (valid values: above 0 and below 1)", *eps)
	}

	srv := server.New(server.Config{
		Shards:            *shards,
		Transport:         transport,
		Workers:           *workers,
		Epsilon:           *eps,
		QueueDepth:        *queue,
		TenantConcurrency: *tenantJobs,
		Concurrency:       *concurrency,
		PlanCacheSize:     *planCache,
		MaxKeys:           *maxKeys,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}

	// Printed to stdout (not the log) so scripts can scrape the bound
	// address when -listen :0 picked a free port.
	fmt.Printf("listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		log.Printf("%s: draining", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	// Drain sequence: stop admission first so in-flight requests see
	// 503s, finish admitted jobs, then stop the HTTP listener and tear
	// down the engines.
	srv.Drain(context.Background())
	httpSrv.Shutdown(context.Background())
	log.Printf("drained, exiting")
}

// Command chef-serve runs symbolic execution as a long-running service:
// exploration jobs arrive over HTTP/JSON, run on a bounded worker pool
// backed by one shared warm persistent store and the process-wide program
// interner, and report results through the job API. See docs/SERVING.md.
//
// Usage:
//
//	chef-serve -addr :8080 -workers 4 -cachefile /var/lib/chef/queries.ndjson
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events,
// GET /v1/jobs/{id}/tests, DELETE /v1/jobs/{id}, GET /healthz, GET /metrics.
//
// On SIGTERM/SIGINT the server drains: new submissions are rejected with
// 503, queued and running jobs finish (up to -drain-timeout, then they are
// cancelled), the persistent store is flushed and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chef/internal/obscli"
	"chef/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue", 64, "bounded job queue capacity (full queue answers 429)")
		tenantLimit  = flag.Int("tenant-limit", 0, "max concurrently running jobs per X-API-Key tenant (0 = unlimited)")
		retryAfter   = flag.Int("retry-after", 1, "Retry-After seconds hint on 429 responses")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "max time to let jobs finish on SIGTERM before cancelling them")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	// Servers always carry a registry: /metrics must work without any
	// metrics flag.
	if err := obsFlags.StartAlways("chef-serve"); err != nil {
		fmt.Fprintf(os.Stderr, "chef-serve: %v\n", err)
		return 1
	}

	srv := serve.NewServer(serve.Options{
		Workers:           *workers,
		QueueCap:          *queueCap,
		TenantLimit:       *tenantLimit,
		RetryAfterSeconds: *retryAfter,
		Persist:           obsFlags.Store(),
		Faults:            obsFlags.Faults(),
		Metrics:           obsFlags.Registry(),
		Tracer:            obsFlags.Tracer(),
	})

	// Catch SIGTERM before announcing the address: a client may signal as
	// soon as it reads the listening line, and the default action would
	// kill the process without draining.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chef-serve: %v\n", err)
		return 1
	}
	fmt.Printf("chef-serve: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "chef-serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Println("chef-serve: draining")

	// Drain first (reject new work, finish in-flight jobs), then shut the
	// listener down: /healthz and job polls stay answerable while jobs run.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "chef-serve: drain: %v (remaining jobs cancelled)\n", err)
	}
	cancel()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = httpSrv.Shutdown(sctx)
	scancel()

	// Finish closes the store (flushing pending appends), publishes its
	// final counts into the exit dump and reports lost appends.
	code := 0
	if err := obsFlags.Finish(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "chef-serve: %v\n", err)
		code = 1
	}
	fmt.Println("chef-serve: stopped")
	return code
}

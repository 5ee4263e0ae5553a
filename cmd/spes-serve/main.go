// Command spes-serve runs the SPES policy as an online serving daemon: live
// invocation events in over HTTP (NDJSON batches on POST /v1/events),
// pre-warm/evict decisions out, with a write-ahead journal and checksummed
// state snapshots in -dir making the process crash-safe — a SIGKILL'd
// daemon restarts into bit-identical policy state — and a bounded ingest
// queue with documented load-shedding protecting it from overload (see
// internal/serve and DESIGN.md "Serving mode").
//
//	spes-serve -addr 127.0.0.1:8080 -dir /var/lib/spes \
//	    -functions 300 -days 6 -train-days 4 -seed 1
//	spes-serve -faults 7        # deterministic serving fault injection
//
// The workload flags regenerate the training trace the policy trains on
// (and retrains against); they must be identical across restarts of the
// same -dir.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

func main() {
	s := experiments.QuickSettings()
	s.RegisterFlags(flag.CommandLine, "functions", "days", "train-days", "seed", "scenario")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dir := flag.String("dir", "", "state directory (journal + snapshots); required")
	retrain := flag.Int("retrain-every", 1440, "online re-categorization period in slots (0 disables)")
	snapEvery := flag.Int("snap-every", 1440, "slots between automatic state snapshots (negative disables)")
	queueDepth := flag.Int("queue-depth", 64, "bounded ingest queue depth (requests)")
	enqueueTimeout := flag.Duration("enqueue-timeout", time.Second, "backpressure budget before a request is shed with 503")
	decisionTimeout := flag.Duration("decision-timeout", 2*time.Second, "decision deadline before a request degrades to the fixed-keepalive fallback")
	keepalive := flag.Int("fallback-keepalive", 10, "keep-alive slots advertised by degraded replies")
	faults := flag.Int64("faults", 0, "inject serving faults (dropped connections, torn snapshots) with this schedule seed (0 disables)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "spes-serve: "+format+"\n", args...)
		os.Exit(1)
	}
	if *dir == "" {
		fail("-dir is required")
	}

	w, err := experiments.Open(s, experiments.Input{})
	if err != nil {
		fail("%v", err)
	}

	cfg := serve.Config{
		Dir:               *dir,
		Policy:            s.SPES,
		Training:          w.Train,
		RetrainEvery:      *retrain,
		SnapshotEvery:     *snapEvery,
		QueueDepth:        *queueDepth,
		EnqueueTimeout:    *enqueueTimeout,
		DecisionTimeout:   *decisionTimeout,
		FallbackKeepAlive: *keepalive,
	}
	if *faults != 0 {
		cfg.Faults = faultinject.New(*faults, faultinject.ServeDefault())
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	// The smoke tests and load generator wait for this line before sending.
	fmt.Printf("spes-serve: listening on %s (dir %s, %d functions)\n", ln.Addr(), *dir, w.Train.NumFunctions())
	os.Stdout.Sync()

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail("serve: %v", err)
		}
	}
	hs.Close()
	if err := srv.Close(); err != nil {
		fail("shutdown: %v", err)
	}
	if cfg.Faults != nil {
		fmt.Printf("spes-serve: injected faults: %s\n", cfg.Faults)
	}
	fmt.Println("spes-serve: clean shutdown")
}

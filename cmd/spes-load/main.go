// Command spes-load replays a workload scenario against a running
// spes-serve daemon: it regenerates the same generated trace (same flags =
// same workload), streams the simulation window's occupied slots as ingest
// batches with client-side timeout/retry/backoff, and reports decision
// latency percentiles plus shed/degraded/duplicate counters as JSON.
//
//	spes-load -base http://127.0.0.1:8080 \
//	    -functions 300 -days 6 -train-days 4 -seed 1 -scenario flashcrowd
//	spes-load -faults 9          # injected client stalls
//
// The workload flags must match the daemon's, or the ingest stream will
// reference functions the daemon never trained on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/serve"
)

func main() {
	s := experiments.QuickSettings()
	s.RegisterFlags(flag.CommandLine, "functions", "days", "train-days", "seed", "scenario")
	base := flag.String("base", "http://127.0.0.1:8080", "daemon base URL")
	batch := flag.Int("batch", 4, "occupied slots per ingest request")
	rate := flag.Float64("rate", 0, "pace in simulation slots per second (0: as fast as acknowledged)")
	start := flag.Int("start", 0, "first simulation slot to replay")
	end := flag.Int("end", 0, "replay slots [start, end); 0 means the full simulation window")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	attempts := flag.Int("attempts", 5, "delivery attempts per request (transient failures retried with backoff)")
	faults := flag.Int64("faults", 0, "inject client-side serving faults (slow batches) with this schedule seed (0 disables)")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "spes-load: "+format+"\n", args...)
		os.Exit(1)
	}
	w, err := experiments.Open(s, experiments.Input{})
	if err != nil {
		fail("%v", err)
	}

	c := &serve.Client{
		Base:  *base,
		HTTP:  &http.Client{Timeout: *timeout},
		Retry: retry.Policy{MaxAttempts: *attempts},
	}
	var inj *faultinject.Injector
	if *faults != 0 {
		inj = faultinject.New(*faults, faultinject.ServeDefault())
		c.HTTP.Transport = inj.Transport(nil) // slow batches
	}

	rep, err := serve.Replay(c, w.Sim, serve.LoadOptions{
		BatchSlots: *batch, Rate: *rate, Start: *start, End: *end,
	})
	if err != nil {
		fail("replay: %v", err)
	}
	if inj != nil {
		fmt.Fprintf(os.Stderr, "spes-load: injected faults: %s\n", inj)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("encode report: %v", err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail("write report: %v", err)
		}
		return
	}
	os.Stdout.Write(data)
}

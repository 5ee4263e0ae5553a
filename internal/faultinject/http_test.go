package faultinject_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// The serving seams touch only ingest requests, the ones carrying the
// Spes-Batch header, and hand the wrapped handler's answer through whole:
// status, headers and body, a 503 included.
func TestServingSeamsTouchOnlyIngest(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Inner", "1")
		http.Error(w, "busy", http.StatusServiceUnavailable)
	})
	post := func(inj *faultinject.Injector, batch string) (*http.Response, error) {
		t.Helper()
		hs := httptest.NewServer(inj.Handler(inner))
		t.Cleanup(hs.Close)
		req, err := http.NewRequest(http.MethodPost, hs.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if batch != "" {
			req.Header.Set("Spes-Batch", batch)
		}
		return (&http.Client{Transport: inj.Transport(nil)}).Do(req)
	}
	passes := func(name string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Inner") != "1" || string(body) != "busy\n" {
			t.Errorf("%s: got %d, X-Inner %q, body %q; want the handler's 503", name, resp.StatusCode, resp.Header.Get("X-Inner"), body)
		}
	}

	always := faultinject.New(1, faultinject.Config{DropConn: 1000, SlowClient: 1000, SlowClientDelay: time.Millisecond})
	resp, err := post(always, "")
	passes("request without the header", resp, err)
	if _, err := post(always, "batch-1"); err == nil {
		t.Error("an ingest request dropped on every draw got an answer")
	}
	if got := always.Counts(); got["dropconn"] != 1 || got["slowclient"] != 1 || len(got) != 2 {
		t.Errorf("counts %v, want one drop and one stall, both on the ingest request", got)
	}

	resp, err = post(faultinject.New(1, faultinject.Config{}), "batch-1")
	passes("ingest request held through both draws", resp, err)
}

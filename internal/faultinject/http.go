package faultinject

import (
	"bytes"
	"net/http"
	"time"
)

// batchHeader names an ingest request's subject: serve.Client.Send sets it
// to "batch-<first seq>", the same on every retry of that request, and no
// other request carries it, so the daemon's read-only endpoints pass
// through both serving seams untouched.
const batchHeader = "Spes-Batch"

// Handler wraps the serving daemon's handler with the dropped-connection
// fault. It draws twice per ingest request: before h runs (the request dies
// unread; nothing was applied, so the retry is a plain re-delivery) and
// after h has answered into a buffer (the batch WAS applied and journaled
// but the acknowledgment is lost; the retry must come back as duplicate
// acks — the exactly-once probe). A drop aborts the connection with
// http.ErrAbortHandler, which the client sees as a network failure. Each
// draw advances the subject's sequence, so a retried request rolls afresh
// and eventually lands.
func (in *Injector) Handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		subject := r.Header.Get(batchHeader)
		if subject == "" {
			h.ServeHTTP(w, r)
			return
		}
		if in.dropConn(subject) {
			panic(http.ErrAbortHandler)
		}
		held := &heldResponse{header: w.Header()}
		h.ServeHTTP(held, r)
		if in.dropConn(subject) {
			panic(http.ErrAbortHandler)
		}
		if held.status != 0 {
			w.WriteHeader(held.status)
		}
		w.Write(held.body.Bytes())
	})
}

func (in *Injector) dropConn(subject string) bool {
	return in.cfg.DropConn > 0 &&
		in.decide("dropconn", subject, in.next("dropconn:"+subject), in.cfg.DropConn)
}

// heldResponse is the answer Handler keeps back until its second draw.
// Headers go straight to the real writer, which sends none of them before
// its WriteHeader or Write.
type heldResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (h *heldResponse) Header() http.Header { return h.header }

func (h *heldResponse) WriteHeader(code int) {
	if h.status == 0 {
		h.status = code
	}
}

func (h *heldResponse) Write(p []byte) (int, error) { return h.body.Write(p) }

// Transport wraps a client transport (nil: http.DefaultTransport) with the
// slow-client fault: an ingest request may stall SlowClientDelay before it
// is sent, modelling a client that holds its events past their slot.
func (in *Injector) Transport(rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return roundTripper(func(r *http.Request) (*http.Response, error) {
		if subject := r.Header.Get(batchHeader); subject != "" && in.cfg.SlowClient > 0 &&
			in.decide("slowclient", subject, in.next("slowclient:"+subject), in.cfg.SlowClient) {
			time.Sleep(in.cfg.SlowClientDelay)
		}
		return rt.RoundTrip(r)
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

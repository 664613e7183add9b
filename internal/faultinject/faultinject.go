// Package faultinject is a deterministic network-fault layer for
// chaos-testing the device→cloud path. One Injector holds a seeded
// PRNG and a probability Schedule and mounts as middleware in front of
// an httpapi.Server: injected 5xx/429 responses and latency, real
// aborted connections and half-written responses.
//
// Determinism is the point: all randomness flows from one seeded PRNG
// behind one mutex, and every decision is appended to a replayable
// fault trace, so a failing chaos run reproduces exactly from its
// seed (see the seeded-determinism test). The injected clock keeps
// latency faults off the wall clock in tests.
package faultinject

import (
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Fault identifies one injectable fault class.
type Fault string

const (
	// FaultNone means the request passed through untouched.
	FaultNone Fault = "none"
	// FaultLatency delays the request by Schedule.LatencyDur.
	FaultLatency Fault = "latency"
	// Fault500 answers HTTP 500 without reaching the backend.
	Fault500 Fault = "err500"
	// Fault429 answers HTTP 429 with a Retry-After hint.
	Fault429 Fault = "err429"
	// FaultReset aborts the connection mid-response.
	FaultReset Fault = "reset"
	// FaultTruncate cuts the response body short.
	FaultTruncate Fault = "truncate"
)

// Event is one entry in the fault trace: the decision made for the
// n-th request through the injector.
type Event struct {
	// Seq is the 0-based request index.
	Seq int
	// Fault is the injected fault (FaultNone for pass-through).
	Fault Fault
	// Latency reports whether the independent latency roll also fired.
	Latency bool
}

// Config parameterizes an Injector.
type Config struct {
	// Seed seeds the fault PRNG; equal seeds yield equal fault traces.
	Seed uint64
	// Schedule is the probability schedule (Validate'd lazily; an
	// invalid schedule panics in New — misconfigured chaos is a test
	// bug, not a runtime condition).
	Schedule Schedule
	// Sleep injects the latency clock (time.Sleep if nil); tests pass
	// a recording fake so no wall time is spent.
	Sleep func(d time.Duration)
}

// Injector decides, per request, which fault (if any) to inject.
// Safe for concurrent use; with concurrent requests the assignment of
// decisions to requests follows arrival order at the injector's lock.
type Injector struct {
	cfg   Config
	sched Schedule

	mu     sync.Mutex
	rng    *rand.Rand
	trace  []Event
	counts map[Fault]uint64
}

// New builds an injector. It panics on an invalid schedule.
func New(cfg Config) *Injector {
	if err := cfg.Schedule.Validate(); err != nil {
		panic(err)
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Injector{
		cfg:    cfg,
		sched:  cfg.Schedule.withDefaults(),
		rng:    rand.New(rand.NewSource(int64(cfg.Seed))),
		counts: map[Fault]uint64{},
	}
}

// decide makes the two rolls for one request and records the event.
func (in *Injector) decide() Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	ev := Event{Seq: len(in.trace), Fault: FaultNone}
	// Latency roll first, fault roll second — the order is part of the
	// deterministic contract (changing it changes every trace).
	ev.Latency = in.rng.Float64() < in.sched.Latency
	u := in.rng.Float64()
	for _, f := range []struct {
		fault Fault
		p     float64
	}{
		{Fault500, in.sched.Err500},
		{Fault429, in.sched.Err429},
		{FaultReset, in.sched.Reset},
		{FaultTruncate, in.sched.Truncate},
	} {
		if u < f.p {
			ev.Fault = f.fault
			break
		}
		u -= f.p
	}
	in.trace = append(in.trace, ev)
	in.counts[ev.Fault]++
	if ev.Latency {
		in.counts[FaultLatency]++
	}
	return ev
}

// Counts returns per-fault totals (FaultLatency counts the independent
// latency roll; FaultNone counts clean pass-throughs).
func (in *Injector) Counts() map[Fault]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Fault]uint64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Requests returns how many requests have been decided.
func (in *Injector) Requests() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.trace)
}

// Middleware wraps a server handler with fault injection. Mount it
// outside the API server's own middleware chain so injected aborts
// bypass the panic-recovery envelope and hit the client as real
// connection failures:
//
//	srv := httptest.NewServer(injector.Middleware()(api))
func (in *Injector) Middleware() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ev := in.decide()
			if ev.Latency {
				in.cfg.Sleep(in.sched.LatencyDur)
			}
			switch ev.Fault {
			case Fault500:
				http.Error(w, "faultinject: injected server error", http.StatusInternalServerError)
			case Fault429:
				w.Header().Set("Retry-After", retryAfterValue(in.sched.RetryAfter))
				http.Error(w, "faultinject: injected throttle", http.StatusTooManyRequests)
			case FaultReset:
				// net/http aborts the connection without logging when a
				// handler panics with ErrAbortHandler: the client sees
				// a mid-flight connection reset.
				panic(http.ErrAbortHandler)
			case FaultTruncate:
				tw := &truncatingWriter{ResponseWriter: w, budget: truncateBudget}
				next.ServeHTTP(tw, r)
				if tw.truncated {
					panic(http.ErrAbortHandler) // cut the stream so the client sees EOF
				}
			default:
				next.ServeHTTP(w, r)
			}
		})
	}
}

// truncateBudget is how many response-body bytes a truncated response
// lets through — enough to start a JSON body, never enough to finish
// a realistic one.
const truncateBudget = 8

// truncatingWriter forwards only the first budget bytes of the body.
type truncatingWriter struct {
	http.ResponseWriter
	budget    int
	truncated bool
}

func (w *truncatingWriter) Write(b []byte) (int, error) {
	if w.budget <= 0 {
		w.truncated = true
		return len(b), nil // swallow, pretend success so handlers finish
	}
	n := len(b)
	if n > w.budget {
		n = w.budget
		w.truncated = true
	}
	if _, err := w.ResponseWriter.Write(b[:n]); err != nil {
		return 0, err
	}
	w.budget -= n
	return len(b), nil
}

// retryAfterValue renders a Retry-After header: whole seconds per RFC
// 9110 (minimum 1 — the header has no sub-second form).
func retryAfterValue(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

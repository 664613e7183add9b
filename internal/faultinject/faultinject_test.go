package faultinject

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestInjectorDeterminism: equal seeds and schedules yield identical
// fault traces; a different seed diverges. This is the contract that
// makes a failing chaos run reproducible.
func TestInjectorDeterminism(t *testing.T) {
	sched := Preset(0.3)
	mk := func(seed uint64) *Injector {
		return New(Config{Seed: seed, Schedule: sched, Sleep: func(time.Duration) {}})
	}
	a, b, other := mk(42), mk(42), mk(43)
	const n = 500
	for i := 0; i < n; i++ {
		a.decide()
		b.decide()
		other.decide()
	}
	ta, tb := a.Trace(), b.Trace()
	if !reflect.DeepEqual(ta, tb) {
		t.Fatal("same seed produced different fault traces")
	}
	if reflect.DeepEqual(ta, other.Trace()) {
		t.Fatal("different seeds produced identical fault traces")
	}
	if len(ta) != n || ta[n-1].Seq != n-1 {
		t.Fatalf("trace length/seq wrong: len=%d last=%+v", len(ta), ta[len(ta)-1])
	}
	if !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatal("same seed produced different counts")
	}
	// At 30% fault rate over 500 requests every class should have fired.
	for _, f := range []Fault{Fault500, Fault429, FaultReset, FaultTruncate, FaultLatency, FaultNone} {
		if a.Counts()[f] == 0 {
			t.Fatalf("fault %s never fired in 500 requests at rate 0.3", f)
		}
	}
}

// okHandler writes a body comfortably larger than truncateBudget.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok","padding":"0123456789abcdef"}`)
	})
}

func certainly(t *testing.T, sched Schedule) (*Injector, *time.Duration) {
	t.Helper()
	var slept time.Duration
	in := New(Config{Schedule: sched, Sleep: func(d time.Duration) { slept += d }})
	return in, &slept
}

// TestMiddlewareFaults forces each fault with probability 1 and checks
// what a real HTTP client observes through the middleware.
func TestMiddlewareFaults(t *testing.T) {
	get := func(t *testing.T, in *Injector) (*http.Response, []byte, error) {
		t.Helper()
		ts := httptest.NewServer(in.Middleware()(okHandler()))
		defer ts.Close()
		c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := c.Get(ts.URL)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	t.Run("err500", func(t *testing.T) {
		in, _ := certainly(t, Schedule{Err500: 1})
		resp, _, err := get(t, in)
		if err != nil || resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("got %v/%v, want 500", resp, err)
		}
	})
	t.Run("err429 with retry-after", func(t *testing.T) {
		in, _ := certainly(t, Schedule{Err429: 1, RetryAfter: 2 * time.Second})
		resp, _, err := get(t, in)
		if err != nil || resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("got %v/%v, want 429", resp, err)
		}
		if got := resp.Header.Get("Retry-After"); got != "2" {
			t.Fatalf("Retry-After = %q, want 2", got)
		}
	})
	t.Run("retry-after rounds up to one second", func(t *testing.T) {
		in, _ := certainly(t, Schedule{Err429: 1, RetryAfter: time.Millisecond})
		resp, _, err := get(t, in)
		if err != nil || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("got %v/%v, want Retry-After 1", resp, err)
		}
	})
	t.Run("reset aborts the connection", func(t *testing.T) {
		in, _ := certainly(t, Schedule{Reset: 1})
		if _, _, err := get(t, in); err == nil {
			t.Fatal("reset fault: client saw a clean response, want connection error")
		}
	})
	t.Run("truncate cuts the body", func(t *testing.T) {
		in, _ := certainly(t, Schedule{Truncate: 1})
		_, body, err := get(t, in)
		if err == nil && len(body) > truncateBudget {
			t.Fatalf("truncate fault: client read %d clean bytes, want ≤%d or read error", len(body), truncateBudget)
		}
	})
	t.Run("latency sleeps then passes through", func(t *testing.T) {
		in, slept := certainly(t, Schedule{Latency: 1, LatencyDur: 7 * time.Millisecond})
		resp, body, err := get(t, in)
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
			t.Fatalf("latency-only request failed: %v/%v", resp, err)
		}
		if *slept != 7*time.Millisecond {
			t.Fatalf("slept %v, want 7ms", *slept)
		}
	})
	t.Run("no faults passes through", func(t *testing.T) {
		in, slept := certainly(t, Schedule{})
		resp, body, err := get(t, in)
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
			t.Fatalf("clean request failed: %v/%v", resp, err)
		}
		if *slept != 0 {
			t.Fatalf("clean request slept %v", *slept)
		}
	})
}

func TestScheduleParse(t *testing.T) {
	t.Run("full spec", func(t *testing.T) {
		s, err := ParseSchedule("latency=0.1:5ms,err500=0.05,err429=0.02:1s,reset=0.03,truncate=0.02")
		if err != nil {
			t.Fatal(err)
		}
		want := Schedule{
			Latency: 0.1, LatencyDur: 5 * time.Millisecond,
			Err500: 0.05,
			Err429: 0.02, RetryAfter: time.Second,
			Reset: 0.03, Truncate: 0.02,
		}
		if s != want {
			t.Fatalf("parsed %+v, want %+v", s, want)
		}
	})
	t.Run("empty is the no-fault schedule", func(t *testing.T) {
		s, err := ParseSchedule("  ")
		if err != nil || s != (Schedule{}) {
			t.Fatalf("got %+v/%v, want zero schedule", s, err)
		}
	})
	for _, bad := range []struct{ name, spec string }{
		{"duplicate fault", "err500=0.1,err500=0.2"},
		{"unknown fault", "jitter=0.1"},
		{"bad probability", "err500=lots"},
		{"probability above one", "err500=1.5"},
		{"negative probability", "err500=-0.1"},
		{"nan probability", "err500=NaN"},
		{"fault sum above one", "err500=0.6,reset=0.6"},
		{"duration on reset", "reset=0.1:5ms"},
		{"bad duration", "latency=0.1:fast"},
		{"non-positive duration", "latency=0.1:0s"},
		{"missing equals", "err500"},
		{"empty key", "=0.5"},
	} {
		t.Run(bad.name, func(t *testing.T) {
			if _, err := ParseSchedule(bad.spec); err == nil {
				t.Fatalf("ParseSchedule(%q) succeeded, want error", bad.spec)
			}
		})
	}
}

// TestPresetAndString: presets validate at every rate and the String
// rendering re-parses to the same schedule.
func TestPresetAndString(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.3, 1, -0.5, 2} {
		s := Preset(rate)
		if err := s.Validate(); err != nil {
			t.Fatalf("Preset(%v) invalid: %v", rate, err)
		}
		back, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("Preset(%v).String() = %q does not re-parse: %v", rate, s.String(), err)
		}
		if normalizeSchedule(back) != normalizeSchedule(s) {
			t.Fatalf("Preset(%v) round-trip: got %+v, want %+v", rate, back, s)
		}
	}
}

// normalizeSchedule zeroes durations whose owning probability is zero —
// they are unobservable, and String() deliberately omits them.
func normalizeSchedule(s Schedule) Schedule {
	if s.Latency == 0 {
		s.LatencyDur = 0
	}
	if s.Err429 == 0 {
		s.RetryAfter = 0
	}
	return s
}

// Trace returns a copy of the fault trace so far.
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.trace...)
}

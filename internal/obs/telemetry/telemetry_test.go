package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"compsynth/internal/obs"
	"compsynth/internal/par"
)

// TestNewBindFailure pins that a -listen address that cannot be bound is a
// synchronous error, not a background goroutine crash.
func TestNewBindFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := New(nil, ln.Addr().String()); err == nil {
		t.Fatal("New on an occupied port succeeded, want bind error")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	// A flagless Start: no server, no recorder, nil tracer — the handler
	// must cope with all of that.
	run := (&obs.Flags{}).Start("telemetrytest")
	defer run.Finish()
	srv := httptest.NewServer(Handler(run))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}

	resp, err = http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	err = json.NewDecoder(resp.Body).Decode(&prog)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/progress does not decode: %v", err)
	}
	if prog.Tool != "telemetrytest" || prog.Goroutines <= 0 {
		t.Errorf("progress = %+v, want tool=telemetrytest and goroutines > 0", prog)
	}
}

// TestParTelemetryConformance pins the worker-pool telemetry contract: after
// a parallel fan-out (with the clock this package's init installed), the
// queue-depth gauge, task wait/run histograms, per-worker claim counters and
// cache hit/miss counters all surface on /metrics, and /progress carries the
// Live-registry section.
func TestParTelemetryConformance(t *testing.T) {
	run := (&obs.Flags{}).Start("telemetrytest")
	defer run.Finish()
	srv := httptest.NewServer(Handler(run))
	defer srv.Close()

	// One parallel fan-out plus one cache hit and miss to populate the
	// instruments this test asserts on.
	par.Run(nil, "conformance", 4, 64, func(_, _ int) {})
	cache := par.NewCache[int, int]()
	cache.Get(1)
	cache.Set(1, 1)
	cache.Get(1)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE par_queue_depth gauge",
		"par_task_wait_ms_bucket{le=",
		"par_task_run_ms_count",
		"# TYPE par_cache_hits counter",
		"# TYPE par_cache_misses counter",
		"# TYPE par_worker_tasks_w0 counter",
		"# TYPE par_tasks counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	err = json.NewDecoder(resp.Body).Decode(&prog)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Live == nil {
		t.Fatal("/progress has no live section after a parallel fan-out")
	}
	if _, ok := prog.Live.Histograms["par.task_wait_ms"]; !ok {
		t.Error("/progress live section missing par.task_wait_ms histogram")
	}
	if _, ok := prog.Live.Counters["par.cache_hits"]; !ok {
		t.Error("/progress live section missing par.cache_hits counter")
	}
	if _, ok := prog.Gauges["par.queue_depth"]; !ok {
		t.Error("/progress default gauges missing par.queue_depth")
	}
}

func TestWriteProm(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter("a.count").Add(3)
	m.Gauge("g.val").Set(-2)
	h := m.Histogram("lat.ms")
	for _, v := range []float64{1, 2, 3000} {
		h.Observe(v)
	}
	var b strings.Builder
	WriteProm(&b, m.Snapshot())
	out := b.String()
	for _, want := range []string{
		"# TYPE a_count counter\na_count 3\n",
		"# TYPE g_val gauge\ng_val -2\n",
		"# TYPE lat_ms histogram\n",
		"lat_ms_bucket{le=\"1\"} 1\n",
		"lat_ms_bucket{le=\"2.5\"} 2\n",
		"lat_ms_bucket{le=\"2500\"} 2\n",
		"lat_ms_bucket{le=\"5000\"} 3\n",
		"lat_ms_bucket{le=\"+Inf\"} 3\n",
		"lat_ms_sum 3003\n",
		"lat_ms_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"resynth.candidates_examined", "resynth_candidates_examined"},
		{"a-b.c d", "a_b_c_d"},
		{"9lives", "_lives"},
		{"ok_name:sub", "ok_name:sub"},
		{"x9.y", "x9_y"},
	} {
		if got := PromName(tc.in); got != tc.want {
			t.Errorf("PromName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFormatLE(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1, "1"}, {2.5, "2.5"}, {100, "100"}, {1e6, "1000000"},
	} {
		if got := formatLE(tc.in); got != tc.want {
			t.Errorf("formatLE(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"compsynth/internal/gen"
	"compsynth/internal/obs"
	"compsynth/internal/resynth"
)

// TestStressEndpointsDuringRun hammers /metrics and /progress from several
// goroutines while a live resynthesis run mutates the span tree,
// the progress gauges, and both metric registries underneath them. It proves
// (under -race, which CI runs for every test) that the live telemetry reads
// are properly synchronized against the pipeline's writes — the endpoints
// must never serve during a run what they could not serve safely.
func TestStressEndpointsDuringRun(t *testing.T) {
	run := (&obs.Flags{Trace: true}).Start("stresstest")
	defer run.Finish()
	srv := httptest.NewServer(Handler(run))
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/metrics", "/progress"}
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[n%len(paths)])
				if err != nil {
					t.Errorf("hammer: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	// Drive real work under the readers: resynthesis with spans, progress
	// events and cache traffic all live.
	for _, b := range gen.SmallSuite() {
		opt := resynth.DefaultOptions()
		opt.Verify = false
		opt.MaxPasses = 2
		opt.Tracer = run.Tracer
		if _, err := resynth.Optimize(b.Build(), opt); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

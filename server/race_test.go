package server

import (
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// TestRacePushersAndReaders hammers Push + Result.Clone through the view
// layer: concurrent pushers feed one model while readers grab whatever
// View is current, clone its Result and scribble on the clone. Run under
// -race (make race, make serve-smoke in CI) this proves that no reader
// ever observes — let alone shares — the engine's recycled mode storage,
// and that Clone really severs all aliasing.
func TestRacePushersAndReaders(t *testing.T) {
	s, err := New(Config{QueueDepth: 256, MaxCoalesce: 8, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateModel(ModelSpec{Name: "race", Modes: 4, ForgetFactor: 0.95}); err != nil {
		t.Fatal(err)
	}
	m, err := s.reg.get("race")
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const (
		rows       = 48
		pushers    = 4
		perPusher  = 25
		memReaders = 3
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Pushers: single-column batches through the ingest queue, retrying
	// on backpressure.
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				req := &pushReq{update: update{x: detMatrix(rows, 1, float64(p*1000+i))}, errc: make(chan error, 1)}
				for m.enqueue(req) != nil {
					runtime.Gosched()
				}
				if err := <-req.errc; err != nil {
					t.Errorf("pusher %d push %d: %v", p, i, err)
					return
				}
			}
		}(p)
	}

	// Memory readers: view → Clone → mutate the clone, read the original.
	var readers sync.WaitGroup
	for r := 0; r < memReaders; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := m.currentView()
				if v == nil {
					runtime.Gosched()
					continue
				}
				mine := v.Result.Clone()
				// Scribbling on the clone must be invisible everywhere else.
				mine.Modes.Set(0, 0, mine.Modes.At(0, 0)+1)
				mine.Singular[0]++
				// And reading the shared view must be stable.
				_ = v.Result.Modes.At(rows-1, 0)
				_ = v.Result.Singular[len(v.Result.Singular)-1]
				if mine.Snapshots != v.Result.Snapshots {
					t.Error("clone diverged from its source view")
					return
				}
			}
		}()
	}

	// One HTTP reader polling spectrum + stats, as a real client would.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models/race/spectrum", nil))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models/race/stats", nil))
		}
	}()

	wg.Wait()
	close(stop)
	readers.Wait()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	v := m.currentView()
	if v == nil || v.Stats.Snapshots != pushers*perPusher {
		t.Fatalf("final view %+v, want %d snapshots", v, pushers*perPusher)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"chopper/api"
)

// health reads a daemon's /healthz through its handler, in process: no
// connection, so sampling adds no load to the generator's connections.
func health(d *daemon) (api.Health, error) {
	var h api.Health
	rr := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", rr.Code)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		return h, fmt.Errorf("decode healthz: %w", err)
	}
	return h, nil
}

// sampler polls /healthz of a primary (and replica) every 20 ms while a
// traced window runs, keeping the peak queue depth and replication lag.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}

	mu       sync.Mutex
	queueMax int
	lagMax   int64
}

func startSampler(primary, replica *daemon) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			if h, err := health(primary); err == nil {
				s.mu.Lock()
				s.queueMax = max(s.queueMax, h.QueueDepth)
				s.mu.Unlock()
			}
			if replica != nil {
				if h, err := health(replica); err == nil {
					s.mu.Lock()
					s.lagMax = max(s.lagMax, h.ReplicationLagBytes)
					s.mu.Unlock()
				}
			}
			select {
			case <-s.stopc:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	return s
}

// stop ends the sampling loop and returns the peaks.
func (s *sampler) stop() (queueMax int, lagMax int64) {
	close(s.stopc)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queueMax, s.lagMax
}

package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
)

// timedStore wraps a pipeline.Store: it times every compute the store
// runs, by node ID, and counts node computes and store hits. The traced
// paper run uses it to time the Monte Carlo nodes.
type timedStore struct {
	inner pipeline.Store

	mu     sync.Mutex
	ms     map[string][]float64
	counts svcCounts
}

func newTimedStore(inner pipeline.Store) *timedStore {
	return &timedStore{inner: inner, ms: make(map[string][]float64)}
}

// Do implements pipeline.Store.
func (s *timedStore) Do(ctx context.Context, key string, compute func() (any, int64, error)) (any, error) {
	var ran atomic.Bool
	v, err := s.inner.Do(ctx, key, func() (any, int64, error) {
		ran.Store(true)
		t0 := obs.Now()
		v, size, err := compute()
		d := float64(obs.Since(t0)) / float64(time.Millisecond)
		id := pipeline.NodeID(key)
		s.mu.Lock()
		s.ms[id] = append(s.ms[id], d)
		s.mu.Unlock()
		return v, size, err
	})
	s.mu.Lock()
	if ran.Load() {
		s.counts.nodesComputed++
	} else {
		s.counts.nodesHit++
	}
	s.mu.Unlock()
	return v, err
}

// computeMS returns the compute times of the nodes whose ID starts
// with prefix.
func (s *timedStore) computeMS(prefix string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for id, ds := range s.ms {
		if strings.HasPrefix(id, prefix) {
			out = append(out, ds...)
		}
	}
	return out
}

func (s *timedStore) snapshot() svcCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

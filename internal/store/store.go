// Package store is the embedded telemetry log store — the repository's
// substitute for the PostgreSQL backend in the paper's testbed (see
// DESIGN.md §1). Routers append raw NetFlow records per (epoch,
// router) segment concurrently; the aggregator later reads whole
// epochs. Segments beyond the retention window are evicted, modelling
// the paper's observation that raw logs are ephemeral — only the
// published hash commitments and the aggregate survive.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"zkflow/internal/netflow"
)

// ErrEvicted reports a read of an epoch outside the retention window.
var ErrEvicted = errors.New("store: epoch evicted")

// segKey identifies one (epoch, router) segment.
type segKey struct {
	epoch  uint64
	router uint32
}

// Store is a concurrency-safe, epoch-segmented, append-only record
// store.
type Store struct {
	mu        sync.RWMutex
	segments  map[segKey][]netflow.Record
	retention int // epochs kept; 0 = unlimited
	maxEpoch  uint64
	haveEpoch bool
}

// Open creates an empty store retaining the given number of epochs
// (0 = unlimited).
func Open(retention int) *Store {
	return &Store{segments: make(map[segKey][]netflow.Record), retention: retention}
}

// Append adds records to the (epoch, router) segment and reports how
// many were refused. A write to an epoch already outside the retention
// window is refused whole — dropped is len(recs) and err wraps
// ErrEvicted — instead of being inserted and immediately evicted,
// which silently lost the records with no signal to the caller. The
// ingest path surfaces the dropped count through obs
// (ingest.records_dropped.evicted).
func (s *Store) Append(epoch uint64, router uint32, recs []netflow.Record) (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evictedLocked(epoch) {
		return len(recs), fmt.Errorf("%w: append to epoch %d (retention %d, latest %d)",
			ErrEvicted, epoch, s.retention, s.maxEpoch)
	}
	k := segKey{epoch, router}
	s.segments[k] = append(s.segments[k], recs...)
	if !s.haveEpoch || epoch > s.maxEpoch {
		s.maxEpoch = epoch
		s.haveEpoch = true
	}
	s.evictLocked()
	return 0, nil
}

func (s *Store) evictLocked() {
	if s.retention <= 0 || !s.haveEpoch {
		return
	}
	min := int64(s.maxEpoch) - int64(s.retention) + 1
	if min <= 0 {
		return
	}
	for k := range s.segments {
		if int64(k.epoch) < min {
			delete(s.segments, k)
		}
	}
}

// evictedLocked reports whether an epoch is outside the retention
// window.
func (s *Store) evictedLocked(epoch uint64) bool {
	return s.retention > 0 && s.haveEpoch && int64(epoch) < int64(s.maxEpoch)-int64(s.retention)+1
}

// Epoch returns a copy of the records one router logged in an epoch.
// Reading an evicted epoch returns ErrEvicted; an epoch the router
// never wrote returns an empty slice.
func (s *Store) Epoch(epoch uint64, router uint32) ([]netflow.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.evictedLocked(epoch) {
		return nil, fmt.Errorf("%w: epoch %d (retention %d, latest %d)", ErrEvicted, epoch, s.retention, s.maxEpoch)
	}
	recs := s.segments[segKey{epoch, router}]
	out := make([]netflow.Record, len(recs))
	copy(out, recs)
	return out, nil
}

// Routers lists the routers that wrote during an epoch, sorted.
// An evicted epoch returns ErrEvicted so callers can distinguish
// "expired" from "never collected".
func (s *Store) Routers(epoch uint64) ([]uint32, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.evictedLocked(epoch) {
		return nil, fmt.Errorf("%w: epoch %d", ErrEvicted, epoch)
	}
	var out []uint32
	for k := range s.segments {
		if k.epoch == epoch {
			out = append(out, k.router)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Epochs lists the retained epochs, sorted.
func (s *Store) Epochs() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[uint64]bool)
	for k := range s.segments {
		seen[k.epoch] = true
	}
	out := make([]uint64, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the total retained record count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, recs := range s.segments {
		n += len(recs)
	}
	return n
}

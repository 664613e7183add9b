// Package registry implements the on-device model pool of §3.4: the set
// of BN versions a device holds, consolidated under an LRU policy with
// the paper's two extra eviction rules (same-cause replacement and
// coarser-cause supersession), and the inference-time version-selection
// rule (most attribute matches, then recency, then risk ratio, falling
// back to the clean model).
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/nn"
)

// Entry is one installed version together with its materialized model
// — a view of the pool's base (adapt.Materialize), so it holds the
// version's batch-norm state and no weights of its own.
type Entry struct {
	Version   adapt.BNVersion
	UpdatedAt time.Time
	net       *nn.Network
	causeKey  string // Version.Cause.Items.Key(), built once at install
}

// Pool is a device's model pool. It is safe for concurrent use.
type Pool struct {
	mu sync.Mutex
	// capacity limits the number of adapted versions kept (0 =
	// unlimited; the clean base model is always available and does not
	// count).
	capacity int
	base     *nn.Network
	entries  []*Entry // maintained most-recently-updated first
}

// NewPool creates a pool around the device's base (clean) model.
// capacity ≤ 0 means unlimited.
func NewPool(base *nn.Network, capacity int) *Pool {
	return &Pool{base: base, capacity: capacity}
}

// Base returns the clean model.
func (p *Pool) Base() *nn.Network {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base
}

// SetBase replaces the clean model (e.g. when the cloud re-deploys a
// continuously-adapted clean version).
func (p *Pool) SetBase(net *nn.Network) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.base = net
}

// Len returns the number of installed adapted versions (Fig. 8c's
// metric).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Install adds a version to the pool, applying the consolidation rules:
//
//  1. A version with the exact same attribute set replaces the old one
//     (the old one is evicted in place, not the LRU tail).
//  2. A version whose root cause covers more data (its attribute set is
//     a subset of an installed version's) evicts the covered versions —
//     the pool-side mirror of set reduction.
//  3. If the pool exceeds capacity, the least-recently-updated version
//     is evicted.
//
// A clean version (no cause) replaces the base model instead.
func (p *Pool) Install(v adapt.BNVersion, now time.Time) error {
	// The base pointer is read under the lock; materializing over it
	// happens outside, so installs do not serialize on the BN copy.
	net, err := adapt.Materialize(p.Base(), v)
	if err != nil {
		return fmt.Errorf("registry: install %s: %w", v.ID, err)
	}
	key := v.Cause.Items.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.IsClean() {
		p.base = net
		return nil
	}

	kept := p.entries[:0]
	for _, e := range p.entries {
		switch {
		case e.causeKey == key:
			// Rule 1: same attribute set — drop the old version.
		case v.Cause.Items.SubsetOf(e.Version.Cause.Items):
			// Rule 2: incoming cause covers a superset of the old
			// version's data — the old version is subsumed.
		default:
			kept = append(kept, e)
		}
	}
	p.entries = kept
	p.entries = append([]*Entry{{Version: v, UpdatedAt: now, net: net, causeKey: key}}, p.entries...)

	if p.capacity > 0 && len(p.entries) > p.capacity {
		// Evict least-recently-updated (entries are kept MRU-first, but
		// sort defensively in case of equal timestamps).
		sort.SliceStable(p.entries, func(i, j int) bool {
			return p.entries[i].UpdatedAt.After(p.entries[j].UpdatedAt)
		})
		p.entries = p.entries[:p.capacity]
	}
	return nil
}

// Select returns the model to use for an input with the given metadata
// attributes, per §3.4: among versions whose cause fully matches the
// attributes, pick the one with the most matching attributes; break ties
// by most-recent update, then by risk ratio. With no match, the clean
// model is used.
//
// The returned version ID is "" for the clean model. Selection runs
// entirely on the device — no cloud involvement.
func (p *Pool) Select(attrs map[string]string) (*nn.Network, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *Entry
	for _, e := range p.entries {
		if !e.Version.Cause.Matches(attrs) {
			continue
		}
		if best == nil || better(e, best) {
			best = e
		}
	}
	if best == nil {
		return p.base, ""
	}
	return best.net, best.Version.ID
}

// better reports whether a should be preferred over b.
func better(a, b *Entry) bool {
	am, bm := len(a.Version.Cause.Items), len(b.Version.Cause.Items)
	if am != bm {
		return am > bm
	}
	if !a.UpdatedAt.Equal(b.UpdatedAt) {
		return a.UpdatedAt.After(b.UpdatedAt)
	}
	return a.Version.Cause.Metrics.RiskRatio > b.Version.Cause.Metrics.RiskRatio
}

// RemoveByCause evicts the version whose cause key matches, reporting
// whether one was found. Used for cause retirement: when the cloud's
// analyses stop listing a cause, its stale version should not keep
// capturing traffic (a device-ID cause, for instance, matches everything
// that device ever does).
func (p *Pool) RemoveByCause(causeKey string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.entries {
		if e.causeKey == causeKey {
			p.entries = append(p.entries[:i], p.entries[i+1:]...)
			return true
		}
	}
	return false
}

// CauseKeys returns the cause keys of installed versions.
func (p *Pool) CauseKeys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.entries))
	for i, e := range p.entries {
		out[i] = e.causeKey
	}
	return out
}

// Package federated implements the paper's primary future-work direction
// (§6): adapting Nazar to federated learning. Instead of uploading
// sampled inputs for cloud-side TENT, each device adapts its batch-norm
// parameters *locally* on its own cause-matching inputs and uploads only
// the resulting BN state; the cloud aggregates the per-device states into
// one BN version per root cause (FedBN-style weighted averaging).
//
// No input ever leaves a device, which also addresses the paper's second
// future-work item (improved user privacy). The rest of Nazar is
// unchanged: detection, the drift log (metadata only), and root-cause
// analysis still run exactly as before — only the adaptation data path
// moves on-device.
package federated

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// ClientUpdate is one device's locally adapted BN state for one cause.
type ClientUpdate struct {
	DeviceID string
	CauseKey string
	Snapshot *nn.BNSnapshot
	// Samples is the local adaptation sample count (the aggregation
	// weight, as in FedAvg).
	Samples int
}

// LocalAdapt runs self-supervised adaptation on a device's local buffer
// of cause-matching inputs and returns the BN state to upload. The base
// network is not mutated.
func LocalAdapt(base *nn.Network, x *tensor.Matrix, causeKey, deviceID string, cfg adapt.Config) (ClientUpdate, error) {
	if x == nil || x.Rows < 2 {
		return ClientUpdate{}, fmt.Errorf("federated: device %s has too few samples for %s", deviceID, causeKey)
	}
	adapted, err := adapt.AdaptContext(context.TODO(), base, x, cfg)
	if err != nil {
		return ClientUpdate{}, fmt.Errorf("federated: device %s: %w", deviceID, err)
	}
	return ClientUpdate{
		DeviceID: deviceID,
		CauseKey: causeKey,
		Snapshot: nn.CaptureBN(adapted),
		Samples:  x.Rows,
	}, nil
}

// Aggregate combines client updates for one cause into a single BN
// snapshot by sample-weighted averaging of γ, β and the running
// statistics.
func Aggregate(updates []ClientUpdate) (*nn.BNSnapshot, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("federated: no updates to aggregate")
	}
	ref := updates[0].Snapshot
	total := 0
	for _, u := range updates {
		if u.Samples <= 0 {
			return nil, fmt.Errorf("federated: device %s reports %d samples", u.DeviceID, u.Samples)
		}
		if len(u.Snapshot.Layers) != len(ref.Layers) {
			return nil, fmt.Errorf("federated: device %s snapshot has %d BN layers, expected %d",
				u.DeviceID, len(u.Snapshot.Layers), len(ref.Layers))
		}
		total += u.Samples
	}
	out := &nn.BNSnapshot{Layers: make([]nn.BNLayerState, len(ref.Layers))}
	for li := range ref.Layers {
		dim := len(ref.Layers[li].Gamma)
		layer := nn.BNLayerState{
			Gamma:   make([]float64, dim),
			Beta:    make([]float64, dim),
			RunMean: make([]float64, dim),
			RunVar:  make([]float64, dim),
		}
		for _, u := range updates {
			ul := u.Snapshot.Layers[li]
			if len(ul.Gamma) != dim {
				return nil, fmt.Errorf("federated: device %s BN layer %d dim %d, expected %d",
					u.DeviceID, li, len(ul.Gamma), dim)
			}
			w := float64(u.Samples) / float64(total)
			for j := 0; j < dim; j++ {
				layer.Gamma[j] += w * ul.Gamma[j]
				layer.Beta[j] += w * ul.Beta[j]
				layer.RunMean[j] += w * ul.RunMean[j]
				layer.RunVar[j] += w * ul.RunVar[j]
			}
		}
		out.Layers[li] = layer
	}
	return out, nil
}

// Coordinator collects client updates and produces one federated BN
// version per cause each round. Safe for concurrent Submit.
type Coordinator struct {
	mu      sync.Mutex
	pending map[string][]ClientUpdate // cause key -> updates
	seq     int
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{pending: map[string][]ClientUpdate{}}
}

// Submit queues one device's update for the next round. A device may
// submit for several causes; a resubmission for the same cause replaces
// its previous update.
func (c *Coordinator) Submit(u ClientUpdate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	list := c.pending[u.CauseKey]
	for i := range list {
		if list[i].DeviceID == u.DeviceID {
			list[i] = u
			return
		}
	}
	c.pending[u.CauseKey] = append(list, u)
}

// Pending returns how many updates are queued for a cause.
func (c *Coordinator) Pending(causeKey string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending[causeKey])
}

// Round aggregates every cause with at least minClients updates into a
// deployable BN version (matching causes by key) and clears the
// aggregated queues. Causes with too few clients stay queued.
func (c *Coordinator) Round(causes []rca.Cause, minClients int, now time.Time) ([]adapt.BNVersion, error) {
	if minClients < 1 {
		minClients = 1
	}
	byKey := map[string]rca.Cause{}
	for _, cause := range causes {
		byKey[cause.Key()] = cause
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	keys := make([]string, 0, len(c.pending))
	for k := range c.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var versions []adapt.BNVersion
	for _, key := range keys {
		updates := c.pending[key]
		cause, known := byKey[key]
		if !known || len(updates) < minClients {
			continue
		}
		snap, err := Aggregate(updates)
		if err != nil {
			return nil, fmt.Errorf("federated: cause %s: %w", key, err)
		}
		c.seq++
		versions = append(versions, adapt.BNVersion{
			ID:        fmt.Sprintf("fed:%s@%d#%d", key, now.Unix(), c.seq),
			Cause:     cause,
			Snapshot:  snap,
			CreatedAt: now,
		})
		delete(c.pending, key)
	}
	return versions, nil
}

package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// BNLayerState is the full state of one batch-norm layer: the learned
// affine pair plus the running statistics. Together, the BN states of a
// network are a "BN version" — the only artifact Nazar ships when it
// deploys an adaptation (the paper notes this is ~217× smaller than the
// full ResNet50).
type BNLayerState struct {
	Gamma, Beta     []float64
	RunMean, RunVar []float64
}

// BNSnapshot captures every batch-norm layer of a network in order.
type BNSnapshot struct {
	Layers []BNLayerState
}

// CaptureBN extracts a deep copy of the network's batch-norm state.
func CaptureBN(net *Network) *BNSnapshot {
	var snap BNSnapshot
	for _, bn := range net.BatchNorms() {
		snap.Layers = append(snap.Layers, BNLayerState{
			Gamma:   append([]float64(nil), bn.Gamma()...),
			Beta:    append([]float64(nil), bn.Beta()...),
			RunMean: append([]float64(nil), bn.RunMean...),
			RunVar:  append([]float64(nil), bn.RunVar...),
		})
	}
	return &snap
}

// ApplyTo installs the snapshot into net's batch-norm layers.
func (s *BNSnapshot) ApplyTo(net *Network) error {
	bns := net.BatchNorms()
	if len(bns) != len(s.Layers) {
		return fmt.Errorf("nn: snapshot has %d BN layers, network has %d", len(s.Layers), len(bns))
	}
	for i, bn := range bns {
		st := s.Layers[i]
		if len(st.Gamma) != bn.Dim {
			return fmt.Errorf("nn: BN layer %d dim %d, snapshot %d", i, bn.Dim, len(st.Gamma))
		}
		copy(bn.Gamma(), st.Gamma)
		copy(bn.Beta(), st.Beta)
		copy(bn.RunMean, st.RunMean)
		copy(bn.RunVar, st.RunVar)
	}
	return nil
}

// SizeBytes returns the raw payload size of the snapshot at 8 bytes per
// scalar (what a binary wire format would carry).
func (s *BNSnapshot) SizeBytes() int {
	total := 0
	for _, l := range s.Layers {
		total += 8 * (len(l.Gamma) + len(l.Beta) + len(l.RunMean) + len(l.RunVar))
	}
	return total
}

// Encode serializes the snapshot for transport/storage.
func (s *BNSnapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("nn: encode BN snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeBNSnapshot parses a snapshot produced by Encode.
func DecodeBNSnapshot(data []byte) (*BNSnapshot, error) {
	var s BNSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decode BN snapshot: %w", err)
	}
	return &s, nil
}

// NetSnapshot captures every parameter of a network (weights plus BN
// running statistics) for full-model deployment.
type NetSnapshot struct {
	Params [][]float64
	BN     BNSnapshot
}

// CaptureNet deep-copies all learnable parameters and BN state.
func CaptureNet(net *Network) *NetSnapshot {
	snap := &NetSnapshot{BN: *CaptureBN(net)}
	for _, p := range net.Params() {
		snap.Params = append(snap.Params, append([]float64(nil), p.W.Data...))
	}
	return snap
}

// ApplyTo installs the snapshot into a network with identical topology.
func (s *NetSnapshot) ApplyTo(net *Network) error {
	params := net.Params()
	if len(params) != len(s.Params) {
		return fmt.Errorf("nn: snapshot has %d params, network has %d", len(s.Params), len(params))
	}
	for i, p := range params {
		if len(p.W.Data) != len(s.Params[i]) {
			return fmt.Errorf("nn: param %d size %d, snapshot %d", i, len(p.W.Data), len(s.Params[i]))
		}
		p.own()
		copy(p.W.Data, s.Params[i])
	}
	return s.BN.ApplyTo(net)
}

// Encode serializes the full-model snapshot.
func (s *NetSnapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("nn: encode net snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeNetSnapshot parses a snapshot produced by NetSnapshot.Encode.
func DecodeNetSnapshot(data []byte) (*NetSnapshot, error) {
	var s NetSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decode net snapshot: %w", err)
	}
	return &s, nil
}

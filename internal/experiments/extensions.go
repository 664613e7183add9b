package experiments

import (
	"context"
	"fmt"

	"nazar/internal/adapt"
	"nazar/internal/federated"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/pipeline"
	"nazar/internal/privacy"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// ExtensionsResult evaluates the paper's two future-work directions on
// the fog cause: federated adaptation (no uploads at all) and
// differentially private uploads at several ε budgets, against the
// centralized baseline.
type ExtensionsResult struct {
	NoAdapt, Central float64
	Federated        float64
	// DP[epsilon] is the accuracy with sanitized uploads.
	DP    map[float64]float64
	Table *Table
}

// Extensions runs the federated-vs-central-vs-DP comparison.
func Extensions(o Options) (*ExtensionsResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	base := r.net(nn.ArchResNet50)
	rng := tensor.NewRand(o.Seed+50, 1)

	const devices, perDevice = 5, 64
	// Each device's local fog buffer; the centralized pool is their
	// union.
	local := make([]*tensor.Matrix, devices)
	pool := tensor.New(devices*perDevice, r.world.Dim())
	for d := 0; d < devices; d++ {
		local[d] = tensor.New(perDevice, r.world.Dim())
		for i := 0; i < perDevice; i++ {
			c := (d*perDevice + i) % r.world.Classes()
			x := r.world.Corrupt(r.world.Sample(c, rng), imagesim.Fog, imagesim.DefaultSeverity, rng)
			copy(local[d].Row(i), x)
			copy(pool.Row(d*perDevice+i), x)
		}
	}
	fogX, labels := testPartition(r, imagesim.Fog, false, o.Seed+51)

	cfg := adapt.Config{Epochs: 2, MinSteps: 20, Rng: tensor.NewRand(o.Seed+52, 1)}
	res := &ExtensionsResult{DP: map[float64]float64{}, NoAdapt: base.Accuracy(fogX, labels)}

	central, err := adapt.AdaptContext(context.TODO(), base, pool, cfg)
	if err != nil {
		return nil, err
	}
	res.Central = central.Accuracy(fogX, labels)

	// Federated: local TENT + weighted BN aggregation.
	var updates []federated.ClientUpdate
	for d := 0; d < devices; d++ {
		u, err := federated.LocalAdapt(base, local[d], "weather=fog", fmt.Sprintf("dev%d", d), cfg)
		if err != nil {
			return nil, err
		}
		updates = append(updates, u)
	}
	snap, err := federated.Aggregate(updates)
	if err != nil {
		return nil, err
	}
	fedModel := base.Clone()
	if err := snap.ApplyTo(fedModel); err != nil {
		return nil, err
	}
	res.Federated = fedModel.Accuracy(fogX, labels)

	// DP uploads: sanitize every pooled sample, adapt centrally.
	// Clip at roughly the typical sample norm so clipping itself is
	// mild and ε controls the noise.
	clip := typicalNorm(pool)
	for _, eps := range []float64{8, 4, 1} {
		san, err := privacy.NewSanitizer(eps, 1e-5, clip)
		if err != nil {
			return nil, err
		}
		noisy := tensor.New(pool.Rows, pool.Cols)
		srng := tensor.NewRand(o.Seed+53, uint64(eps*16))
		for i := 0; i < pool.Rows; i++ {
			copy(noisy.Row(i), san.Sanitize(pool.Row(i), srng))
		}
		m, err := adapt.AdaptContext(context.TODO(), base, noisy, cfg)
		if err != nil {
			return nil, err
		}
		res.DP[eps] = m.Accuracy(fogX, labels)
	}

	table := &Table{
		ID:     "extensions",
		Title:  "Future-work extensions on the fog cause: federated + DP uploads",
		Header: []string{"Variant", "Fog accuracy", "Raw inputs leave device?"},
	}
	table.AddRow("no-adapt", pct(res.NoAdapt), "-")
	table.AddRow("centralized TENT", pct(res.Central), "yes")
	for _, eps := range []float64{8, 4, 1} {
		table.AddRow(fmt.Sprintf("centralized + DP (ε=%g)", eps), pct(res.DP[eps]), "noised only")
	}
	table.AddRow("federated (5 clients)", pct(res.Federated), "no")
	table.Notes = append(table.Notes,
		"§6 future work: per-sample DP on raw uploads destroys adaptation utility even at generous ε,",
		"while federated BN aggregation gets privacy (nothing uploaded) at near-centralized accuracy")
	res.Table = table
	return res, nil
}

// typicalNorm returns the mean row L2 norm of a batch.
func typicalNorm(m *tensor.Matrix) float64 {
	var sum float64
	for i := 0; i < m.Rows; i++ {
		sum += tensor.Norm2(m.Row(i))
	}
	return sum / float64(m.Rows)
}

// FederatedE2EResult compares centralized Nazar against federated Nazar
// end to end on the cityscapes workload.
type FederatedE2EResult struct {
	// Drifted-data accuracy, mean over the last windows.
	NoAdapt, Nazar, Federated float64
	Table                     *Table
}

// FederatedE2E runs the full streaming workload under the federated
// strategy and the two reference strategies.
func FederatedE2E(o Options) (*FederatedE2EResult, error) {
	o = o.withDefaults()
	windows := e2eWindows(o)
	res := &FederatedE2EResult{}
	get := func(s pipeline.Strategy) (float64, error) {
		r, err := runE2E(e2eKey{dataset: "cityscapes", arch: nn.ArchResNet50, strategy: s,
			windows: windows, severity: imagesim.DefaultSeverity, rcaMode: rca.Full,
			quick: o.Quick, seed: o.Seed})
		if err != nil {
			return 0, err
		}
		m, _ := r.AvgDriftAccLast(windows - 1)
		return m, nil
	}
	var err error
	if res.NoAdapt, err = get(pipeline.NoAdapt); err != nil {
		return nil, err
	}
	if res.Nazar, err = get(pipeline.Nazar); err != nil {
		return nil, err
	}
	if res.Federated, err = get(pipeline.FederatedNazar); err != nil {
		return nil, err
	}
	table := &Table{
		ID:     "federated",
		Title:  "Federated Nazar end to end (cityscapes, drifted-data accuracy)",
		Header: []string{"Strategy", "Drifted accuracy", "Samples uploaded"},
	}
	table.AddRow("no-adapt", pct(res.NoAdapt), "none")
	table.AddRow("Nazar (centralized)", pct(res.Nazar), "sampled inputs")
	table.AddRow("Nazar (federated)", pct(res.Federated), "BN states only")
	table.Notes = append(table.Notes,
		"§6 future work: federated adaptation keeps most of Nazar's recovery with zero input uploads")
	res.Table = table
	return res, nil
}

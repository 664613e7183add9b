package adapt_test

import (
	"context"
	"fmt"

	"nazar/internal/adapt"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// ExampleAdaptContext shows the core self-supervised loop: TENT adapts only the
// batch-norm parameters of a trained model to a drifted, unlabeled
// sample pool, leaving the base model untouched.
func ExampleAdaptContext() {
	const classes = 8
	world := imagesim.NewWorld(imagesim.DefaultConfig(classes, 7))
	rng := tensor.NewRand(7, 1)

	// A trained base model (training elided to a few epochs).
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), classes, rng)
	x := tensor.New(classes*40, world.Dim())
	y := make([]int, x.Rows)
	for i := range y {
		y[i] = i % classes
		copy(x.Row(i), world.Sample(y[i], rng))
	}
	nn.Fit(base, x, y, nn.TrainConfig{Epochs: 15, BatchSize: 32, Rng: rng})

	// Unlabeled foggy inputs arrive; adapt by cause.
	foggy := world.CorruptBatch(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
	adapted, err := adapt.AdaptContext(context.Background(), base, foggy, adapt.Config{Rng: rng})
	if err != nil {
		panic(err)
	}

	// Only the BN state ships to devices.
	version := nn.CaptureBN(adapted)
	fmt.Printf("full model: %d bytes; BN version: %d bytes (%dx smaller)\n",
		base.SizeBytes(), version.SizeBytes(), base.SizeBytes()/version.SizeBytes())

	// Output:
	// full model: 49984 bytes; BN version: 3072 bytes (16x smaller)
}

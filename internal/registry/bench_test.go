package registry

import (
	"fmt"
	"testing"

	"nazar/internal/adapt"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// BenchmarkPoolInstall is what a device pays to take one version from
// the cloud: materialize it over the pool's base and consolidate. Each op
// installs one of five by-cause versions or (every sixth) a clean one
// into a pool that already holds all five, so every install replaces its
// predecessor and the pool stays in steady state. The model has
// city_loop's shape; B/op is what one installed version allocates.
func BenchmarkPoolInstall(b *testing.B) {
	base := nn.NewClassifier(nn.ArchResNet50, 64, 19, tensor.NewRand(0xB1, 1))
	versions := make([]adapt.BNVersion, 6)
	for i := range versions[:5] {
		versions[i] = version(fmt.Sprintf("v%d", i), 2, "weather", fmt.Sprintf("w%d", i), "location", "city_0")
	}
	versions[5].ID = "clean"
	for i := range versions {
		versions[i].Snapshot = nn.CaptureBN(base)
	}
	p := NewPool(base, 0)
	for _, v := range versions {
		if err := p.Install(v, at(0)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Install(versions[i%len(versions)], at(1)); err != nil {
			b.Fatal(err)
		}
	}
}

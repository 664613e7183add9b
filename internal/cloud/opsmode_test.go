package cloud

import (
	"context"
	"strings"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/imagesim"
	"nazar/internal/rca"
	"nazar/internal/weather"
)

func TestDiagnoseEmitsAlerts(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(10, 321))
	base := trainBase(world, 321)
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 8
	svc := NewService(base, cfg)
	log := &AlertLog{}
	svc.SetAlerter(log)
	buildWorkload(t, svc, world, base, 300)

	causes, err := svc.DiagnoseContext(context.Background(), weather.Day(10), weather.Day(11), weather.Day(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) == 0 {
		t.Fatal("no causes diagnosed")
	}
	alerts := log.Alerts()
	if len(alerts) != len(causes) {
		t.Fatalf("%d alerts for %d causes", len(alerts), len(causes))
	}
	foundFog := false
	for _, a := range alerts {
		if a.Total == 0 || a.Drift == 0 {
			t.Fatalf("alert without counts: %+v", a)
		}
		if !strings.Contains(a.Message, "drift cause") {
			t.Fatalf("message %q", a.Message)
		}
		if strings.Contains(a.Message, "fog") {
			foundFog = true
		}
	}
	if !foundFog {
		t.Fatal("no fog alert")
	}
	// Diagnose must not adapt anything.
	if got := len(svc.VersionsSince(time.Time{})); got != 0 {
		t.Fatalf("diagnose produced %d versions", got)
	}
}

func TestManualAdaptSelectedCauses(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(10, 321))
	base := trainBase(world, 321)
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 8
	cfg.AdaptCfg.Epochs = 1
	svc := NewService(base, cfg)
	buildWorkload(t, svc, world, base, 300)

	causes, err := svc.DiagnoseContext(context.Background(), weather.Day(10), weather.Day(11), weather.Day(11))
	if err != nil {
		t.Fatal(err)
	}
	// The operator selects only the fog cause.
	var selected []rca.Cause
	for _, c := range causes {
		if c.Matches(map[string]string{driftlog.AttrWeather: "fog"}) {
			selected = append(selected, c)
		}
	}
	if len(selected) == 0 {
		t.Fatalf("no fog cause among %v", causes)
	}
	versions, err := svc.AdaptCausesContext(context.Background(), selected, weather.Day(10), weather.Day(11), weather.Day(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != len(selected) {
		t.Fatalf("%d versions for %d selected causes", len(versions), len(selected))
	}
	// The manual versions enter the deployment history.
	if got := len(svc.VersionsSince(time.Time{})); got != len(versions) {
		t.Fatalf("history has %d versions", got)
	}
}

func TestAlertFuncAdapter(t *testing.T) {
	var got []Alert
	f := AlertFunc(func(a Alert) { got = append(got, a) })
	f.Alert(Alert{Message: "x"})
	if len(got) != 1 || got[0].Message != "x" {
		t.Fatal("AlertFunc adapter broken")
	}
}

func TestAutopilotAlertsToo(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(10, 321))
	base := trainBase(world, 321)
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 8
	cfg.AdaptCfg.Epochs = 1
	cfg.AdaptClean = false
	svc := NewService(base, cfg)
	log := &AlertLog{}
	svc.SetAlerter(log)
	buildWorkload(t, svc, world, base, 300)
	if _, err := svc.RunWindowContext(context.Background(), weather.Day(10), weather.Day(11), weather.Day(11)); err != nil {
		t.Fatal(err)
	}
	if len(log.Alerts()) == 0 {
		t.Fatal("autopilot mode should still alert")
	}
}

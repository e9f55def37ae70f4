package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZooComposition(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 8 {
		t.Fatalf("zoo has %d models, want 8 (Table 2)", len(zoo))
	}
	classes := map[Class]int{}
	for _, m := range zoo {
		classes[m.Class]++
	}
	// Table 2: 3 CV, 2 NLP, 1 Speech, 2 Rec.
	if classes[CV] != 3 || classes[NLP] != 2 || classes[Speech] != 1 || classes[Rec] != 2 {
		t.Errorf("class mix %v", classes)
	}
	if len(All()) != 9 {
		t.Errorf("All() has %d models, want 9 (incl. ResNet152)", len(All()))
	}
}

func TestByNameAndClass(t *testing.T) {
	if _, err := ByName("ResNet50"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("AlexNet"); err == nil {
		t.Error("unknown model accepted")
	}
	if got := len(ByClass(CV)); got != 3 {
		t.Errorf("CV class has %d models", got)
	}
	if z := Zoo(); len(z) != 8 || z[0].Name != "VGG19" {
		t.Errorf("Zoo() has %d models, first %q", len(z), z[0].Name)
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic")
		}
	}()
	MustByName("nope")
}

func TestBatchSecondsAmdahl(t *testing.T) {
	m := MustByName("ResNet50") // fully compute-bound
	base := m.BatchSeconds(1, 1)
	if math.Abs(base-m.K80BatchSeconds) > 1e-9 {
		t.Errorf("baseline batch %g, want %g", base, m.K80BatchSeconds)
	}
	if sp := m.Speedup(7); math.Abs(sp-7) > 1e-9 {
		t.Errorf("compute-bound speedup %g, want 7", sp)
	}
	gs := MustByName("GraphSAGE") // input-bound
	if sp := gs.Speedup(7); sp > 2.2 {
		t.Errorf("GraphSAGE speedup %g, want capped near 2", sp)
	}
	if sp := gs.Speedup(1e9); sp > 1/(1-gs.ComputeFrac)+1e-6 {
		t.Errorf("speedup %g exceeds the Amdahl limit %g", sp, 1/(1-gs.ComputeFrac))
	}
}

func TestBatchSecondsMonotonicInSpeed(t *testing.T) {
	f := func(rawSpeed, rawScale uint8) bool {
		speed := 1 + float64(rawSpeed)/32
		scale := 0.25 + float64(rawScale)/64
		for _, m := range Zoo() {
			if m.BatchSeconds(speed, scale) > m.BatchSeconds(speed/2, scale)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBatchSecondsScalesWithBatch(t *testing.T) {
	for _, m := range Zoo() {
		small := m.BatchSeconds(2, 0.5)
		big := m.BatchSeconds(2, 2)
		if big <= small {
			t.Errorf("%s: doubling the batch did not increase batch time", m.Name)
		}
	}
}

func TestBatchSecondsPanics(t *testing.T) {
	m := MustByName("VGG19")
	for _, bad := range []func(){
		func() { m.BatchSeconds(0, 1) },
		func() { m.BatchSeconds(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid argument")
				}
			}()
			bad()
		}()
	}
}

func TestLayersSumToParamBytes(t *testing.T) {
	for _, m := range All() {
		layers := m.Layers()
		if len(layers) != m.NumLayers {
			t.Errorf("%s: %d layers, want %d", m.Name, len(layers), m.NumLayers)
		}
		var total int64
		for _, l := range layers {
			if l.ParamBytes < 0 {
				t.Errorf("%s: negative layer size", m.Name)
			}
			total += l.ParamBytes
		}
		if total != m.ParamBytes {
			t.Errorf("%s: layers sum to %d, want %d", m.Name, total, m.ParamBytes)
		}
		// Front-heavy: first layer at least as large as the last.
		if layers[0].ParamBytes < layers[len(layers)-1].ParamBytes {
			t.Errorf("%s: layer split not front-heavy", m.Name)
		}
	}
}

func TestSwitchUnitWithinModel(t *testing.T) {
	for _, m := range All() {
		if m.SwitchUnitBytes <= 0 {
			t.Errorf("%s: non-positive switch unit", m.Name)
		}
		if m.TrainFootprintBytes < m.ParamBytes {
			t.Errorf("%s: training footprint smaller than the weights", m.Name)
		}
	}
}

func TestRegister(t *testing.T) {
	custom := &Model{
		Name: "TestNet-Register", Class: CV, Dataset: "synthetic", DefaultBatch: 32,
		ParamBytes: 10 * mib, NumLayers: 5,
		K80BatchSeconds: 0.5, ComputeFrac: 0.9,
		SwitchUnitBytes: 2 * mib, TrainFootprintBytes: 100 * mib,
	}
	if err := Register(custom); err != nil {
		t.Fatal(err)
	}
	got, err := ByName("TestNet-Register")
	if err != nil || got != custom {
		t.Fatalf("registered model not resolvable: %v", err)
	}
	// Defaults filled in.
	if got.RoundsBase <= 0 || got.ScaleBase <= 0 || got.InitSeconds <= 0 {
		t.Errorf("defaults not applied: %+v", got)
	}
	// Usable by the time model and layer synthesis.
	if got.BatchSeconds(7, 1) >= got.BatchSeconds(1, 1) {
		t.Error("registered model not faster on a faster GPU")
	}
	if len(got.Layers()) != 5 {
		t.Errorf("%d layers", len(got.Layers()))
	}
	// Zoo() is unchanged.
	if len(Zoo()) != 8 {
		t.Errorf("Zoo grew to %d", len(Zoo()))
	}
	// Duplicate and invalid registrations rejected.
	if err := Register(custom); err == nil {
		t.Error("duplicate name accepted")
	}
	bad := *custom
	bad.Name = "TestNet-Bad"
	bad.ComputeFrac = 1.5
	if err := Register(&bad); err == nil {
		t.Error("ComputeFrac > 1 accepted")
	}
}

func TestSpeedupTable(t *testing.T) {
	const v100 = 7 // speed relative to K80
	if MustByName("ResNet50").Speedup(v100) < MustByName("GraphSAGE").Speedup(v100) {
		t.Error("compute-bound model should gain more from V100 than input-bound")
	}
}

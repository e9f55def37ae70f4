// Package model is the deep-learning model zoo of the reproduction:
// the eight workloads of the paper's Table 2 plus ResNet152 (used by
// the Fig. 5 motivation study). Each entry records the quantities the
// rest of the system needs — parameter bytes, a synthetic layer
// breakdown for pipelined transfer, per-batch training time on the K80
// baseline, and the Amdahl fraction of that time that scales with GPU
// compute speed.
//
// Calibration. K80BatchSeconds and ComputeFrac are calibrated so that
// the per-GPU speedups reproduce the paper's Fig. 2: compute-bound
// CNNs (ComputeFrac ≈ 1) reach the full hardware speedup (7× on
// V100), while input-bound graph models (GraphSAGE, ComputeFrac ≈
// 0.55) cap near 2× even on a V100 because data pre-processing
// dominates. SwitchUnitBytes and InitSeconds are calibrated against
// the paper's Table 3 switching times.
package model

import (
	"fmt"
)

// Class is the workload family of a model (Table 2's Type column).
type Class string

// The four workload classes of Table 2.
const (
	CV     Class = "CV"
	NLP    Class = "NLP"
	Speech Class = "Speech"
	Rec    Class = "Rec"
)

// Classes lists every workload class in Table 2 order.
func Classes() []Class { return []Class{CV, NLP, Speech, Rec} }

// Layer is one transferable unit of a model for pipelined task
// switching (PipeSwitch transmits and executes models layer by layer).
type Layer struct {
	Name       string
	ParamBytes int64
}

// Model describes one training workload.
type Model struct {
	Name         string
	Class        Class
	Dataset      string
	DefaultBatch int

	// ParamBytes is the fp32 model size; it determines checkpoint and
	// gradient transfer volume.
	ParamBytes int64
	// NumLayers is the number of pipeline-transferable layers.
	NumLayers int

	// K80BatchSeconds is the profiled time of one mini-batch (at
	// DefaultBatch) on the K80 baseline GPU.
	K80BatchSeconds float64
	// ComputeFrac is the Amdahl fraction of batch time that scales
	// with GPU compute speed; the remainder (input pipeline, CPU-side
	// pre-processing) is fixed. In [0, 1].
	ComputeFrac float64

	// SwitchUnitBytes is the data that must be resident on the device
	// before the first mini-batch can start when switching to this
	// task: embedding/front layers plus framework workspace. It sets
	// the pipelined switch cost (Table 3).
	SwitchUnitBytes int64
	// InitSeconds is the unpipelined framework initialization
	// (CUDA context + cuDNN heuristics + allocator warmup) paid by a
	// default, unoptimized switch.
	InitSeconds float64
	// TrainFootprintBytes is the full training memory footprint
	// (weights + gradients + optimizer state + activations); it gates
	// how many models the speculative memory manager can keep
	// resident.
	TrainFootprintBytes int64

	// RoundsBase is the default number of training rounds a job of
	// this model runs in the workload generator (before per-job
	// randomization). NLP jobs are the heaviest (the paper notes they
	// have both more rounds and longer rounds).
	RoundsBase int
	// ScaleBase is the default synchronization scale |D_r|.
	ScaleBase int
}

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

// zoo is ordered as in Table 2. ResNet152 is appended for the Fig. 5
// motivation experiment.
var zoo = []*Model{
	{
		Name: "VGG19", Class: CV, Dataset: "Cifar10", DefaultBatch: 128,
		ParamBytes: 576 * mib, NumLayers: 19,
		K80BatchSeconds: 1.20, ComputeFrac: 0.99,
		SwitchUnitBytes: 32 * mib, InitSeconds: 2.25, TrainFootprintBytes: 4 * gib,
		RoundsBase: 60, ScaleBase: 2,
	},
	{
		Name: "ResNet50", Class: CV, Dataset: "Cifar100", DefaultBatch: 64,
		ParamBytes: 102 * mib, NumLayers: 50,
		K80BatchSeconds: 0.90, ComputeFrac: 1.00,
		SwitchUnitBytes: 43 * mib, InitSeconds: 4.95, TrainFootprintBytes: 3 * gib,
		RoundsBase: 70, ScaleBase: 2,
	},
	{
		Name: "InceptionV3", Class: CV, Dataset: "Cifar100", DefaultBatch: 32,
		ParamBytes: 95 * mib, NumLayers: 48,
		K80BatchSeconds: 1.10, ComputeFrac: 0.98,
		SwitchUnitBytes: 47 * mib, InitSeconds: 6.80, TrainFootprintBytes: 3 * gib,
		RoundsBase: 65, ScaleBase: 2,
	},
	{
		Name: "Bert_base", Class: NLP, Dataset: "SQuAD", DefaultBatch: 32,
		ParamBytes: 440 * mib, NumLayers: 14,
		K80BatchSeconds: 2.60, ComputeFrac: 0.97,
		SwitchUnitBytes: 165 * mib, InitSeconds: 7.99, TrainFootprintBytes: 6 * gib,
		RoundsBase: 110, ScaleBase: 4,
	},
	{
		Name: "Transformer", Class: NLP, Dataset: "WMT16", DefaultBatch: 128,
		ParamBytes: 260 * mib, NumLayers: 12,
		K80BatchSeconds: 1.90, ComputeFrac: 0.96,
		SwitchUnitBytes: 130 * mib, InitSeconds: 4.24, TrainFootprintBytes: 5 * gib,
		RoundsBase: 100, ScaleBase: 4,
	},
	{
		Name: "DeepSpeech", Class: Speech, Dataset: "ComVoice", DefaultBatch: 8,
		ParamBytes: 152 * mib, NumLayers: 9,
		K80BatchSeconds: 1.50, ComputeFrac: 0.90,
		SwitchUnitBytes: 108 * mib, InitSeconds: 4.12, TrainFootprintBytes: 4 * gib,
		RoundsBase: 80, ScaleBase: 2,
	},
	{
		Name: "FastGCN", Class: Rec, Dataset: "Cora", DefaultBatch: 128,
		ParamBytes: 2 * mib, NumLayers: 3,
		K80BatchSeconds: 0.35, ComputeFrac: 0.70,
		SwitchUnitBytes: 14 * mib, InitSeconds: 4.33, TrainFootprintBytes: 512 * mib,
		RoundsBase: 35, ScaleBase: 1,
	},
	{
		Name: "GraphSAGE", Class: Rec, Dataset: "Cora", DefaultBatch: 16,
		ParamBytes: 1200 * kib, NumLayers: 2,
		K80BatchSeconds: 0.25, ComputeFrac: 0.55,
		SwitchUnitBytes: 6 * mib, InitSeconds: 4.21, TrainFootprintBytes: 400 * mib,
		RoundsBase: 30, ScaleBase: 1,
	},
	{
		Name: "ResNet152", Class: CV, Dataset: "ImageNet-sub", DefaultBatch: 32,
		ParamBytes: 240 * mib, NumLayers: 152,
		K80BatchSeconds: 2.40, ComputeFrac: 1.00,
		SwitchUnitBytes: 60 * mib, InitSeconds: 7.00, TrainFootprintBytes: 5 * gib,
		RoundsBase: 90, ScaleBase: 4,
	},
}

var byName = func() map[string]*Model {
	m := make(map[string]*Model, len(zoo))
	for _, md := range zoo {
		m[md.Name] = md
	}
	return m
}()

// Register adds a user-defined model to the zoo so downstream
// workloads can schedule their own architectures alongside Table 2's.
// The name must be unused and the calibration fields self-consistent.
// Registered models are resolvable via ByName and usable in workload
// files, but are not appended to Zoo()'s Table 2 lineup.
func Register(m *Model) error {
	if m == nil || m.Name == "" {
		return fmt.Errorf("model: Register requires a named model")
	}
	if _, exists := byName[m.Name]; exists {
		return fmt.Errorf("model: %q is already registered", m.Name)
	}
	switch {
	case m.ParamBytes <= 0:
		return fmt.Errorf("model: %q has non-positive ParamBytes", m.Name)
	case m.NumLayers <= 0:
		return fmt.Errorf("model: %q has non-positive NumLayers", m.Name)
	case m.K80BatchSeconds <= 0:
		return fmt.Errorf("model: %q has non-positive K80BatchSeconds", m.Name)
	case m.ComputeFrac < 0 || m.ComputeFrac > 1:
		return fmt.Errorf("model: %q has ComputeFrac %g outside [0,1]", m.Name, m.ComputeFrac)
	case m.SwitchUnitBytes <= 0:
		return fmt.Errorf("model: %q has non-positive SwitchUnitBytes", m.Name)
	case m.TrainFootprintBytes < m.ParamBytes:
		return fmt.Errorf("model: %q training footprint below its weights", m.Name)
	case m.Class != CV && m.Class != NLP && m.Class != Speech && m.Class != Rec:
		return fmt.Errorf("model: %q has unknown class %q", m.Name, m.Class)
	}
	if m.RoundsBase <= 0 {
		m.RoundsBase = 50
	}
	if m.ScaleBase <= 0 {
		m.ScaleBase = 1
	}
	if m.InitSeconds <= 0 {
		m.InitSeconds = 4
	}
	byName[m.Name] = m
	return nil
}

// Zoo returns the models of Table 2, in table order (ResNet152 is not
// included; it is a motivation-study model, not a workload model).
func Zoo() []*Model { return append([]*Model(nil), zoo[:8]...) }

// All returns every model known to the zoo, including ResNet152.
func All() []*Model { return append([]*Model(nil), zoo...) }

// ByName looks a model up by its Table 2 name.
func ByName(name string) (*Model, error) {
	if m, ok := byName[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// MustByName is ByName for static names; it panics on unknown names.
func MustByName(name string) *Model {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// ByClass returns the Table 2 models of one workload class, in table
// order.
func ByClass(c Class) []*Model {
	var out []*Model
	for _, m := range zoo[:8] {
		if m.Class == c {
			out = append(out, m)
		}
	}
	return out
}

// BatchSeconds returns the per-mini-batch training time on a GPU with
// the given relative compute speed (K80 = 1), at batchScale times the
// default batch size. The compute portion follows Amdahl's law in the
// GPU speed and scales linearly with the batch; the fixed portion
// (input pipeline) scales sub-linearly because loading overlaps
// training.
func (m *Model) BatchSeconds(gpuSpeed, batchScale float64) float64 {
	if gpuSpeed <= 0 {
		panic(fmt.Sprintf("model: non-positive GPU speed %g", gpuSpeed))
	}
	if batchScale <= 0 {
		panic(fmt.Sprintf("model: non-positive batch scale %g", batchScale))
	}
	compute := m.K80BatchSeconds * m.ComputeFrac * batchScale / gpuSpeed
	fixed := m.K80BatchSeconds * (1 - m.ComputeFrac) * (0.5 + 0.5*batchScale)
	return compute + fixed
}

// Speedup returns the training speedup of this model on a GPU of the
// given relative speed, versus the K80 baseline (the quantity plotted
// in the paper's Fig. 2).
func (m *Model) Speedup(gpuSpeed float64) float64 {
	return m.BatchSeconds(1, 1) / m.BatchSeconds(gpuSpeed, 1)
}

// Layers synthesizes the model's pipeline-transferable layer
// breakdown: a front-heavy split of ParamBytes across NumLayers
// layers, with the first layer sized at SwitchUnitBytes' share. The
// split is deterministic.
func (m *Model) Layers() []Layer {
	n := m.NumLayers
	if n <= 0 {
		n = 1
	}
	layers := make([]Layer, n)
	// Geometric-ish decay: layer i gets weight (n-i), normalized, so
	// early layers are larger — matching embedding-heavy NLP models
	// and stem-heavy CNNs for the purposes of pipeline fill cost.
	total := int64(0)
	weightSum := 0
	for i := 0; i < n; i++ {
		weightSum += n - i
	}
	for i := 0; i < n; i++ {
		b := m.ParamBytes * int64(n-i) / int64(weightSum)
		layers[i] = Layer{Name: fmt.Sprintf("%s/layer%03d", m.Name, i), ParamBytes: b}
		total += b
	}
	// Put rounding remainder on the first layer.
	layers[0].ParamBytes += m.ParamBytes - total
	return layers
}

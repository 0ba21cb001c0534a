package ml

import (
	"fmt"
	"math"

	"pds2/internal/crypto"
)

// Dataset is a dense supervised classification dataset; labels are ±1.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimension (zero for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns a view containing the examples at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{X: make([][]float64, len(idx)), Y: make([]float64, len(idx))}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// Concat returns a dataset that concatenates the given parts (views, not
// copies).
func Concat(parts ...*Dataset) *Dataset {
	out := &Dataset{}
	for _, p := range parts {
		out.X = append(out.X, p.X...)
		out.Y = append(out.Y, p.Y...)
	}
	return out
}

// Hash returns a content digest of the dataset, the identifier under
// which it is registered on the governance ledger and deeded as an NFT.
func (d *Dataset) Hash() crypto.Digest {
	h := make([][]byte, 0, d.Len())
	for i := range d.X {
		row := make([]byte, 0, 8*(len(d.X[i])+1))
		for _, v := range d.X[i] {
			row = appendFloat(row, v)
		}
		row = appendFloat(row, d.Y[i])
		h = append(h, row)
	}
	return crypto.MerkleRootOf(h)
}

func appendFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	return append(b, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// SyntheticConfig parameterizes the classification generator.
type SyntheticConfig struct {
	N          int     // number of examples
	Dim        int     // feature dimension
	LabelNoise float64 // probability of flipping a label
	Margin     float64 // scale of the ground-truth weight vector
}

// GenerateClassification draws a random ground-truth hyperplane and
// samples x ~ N(0, I), y = sign(w·x) with label noise. It returns the
// dataset and the ground-truth weights, so experiments can measure how
// close the learned model comes to the generating process.
func GenerateClassification(cfg SyntheticConfig, rng *crypto.DRBG) (*Dataset, []float64) {
	if cfg.Margin == 0 {
		cfg.Margin = 2
	}
	truth := make([]float64, cfg.Dim)
	for i := range truth {
		truth[i] = rng.NormFloat64() * cfg.Margin / math.Sqrt(float64(cfg.Dim))
	}
	d := &Dataset{X: make([][]float64, cfg.N), Y: make([]float64, cfg.N)}
	for i := 0; i < cfg.N; i++ {
		x := make([]float64, cfg.Dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := 1.0
		if Dot(truth, x) < 0 {
			y = -1
		}
		if rng.Float64() < cfg.LabelNoise {
			y = -y
		}
		d.X[i] = x
		d.Y[i] = y
	}
	return d, truth
}

// GenerateSensorReadings produces the IoT-flavoured dataset used by the
// device and marketplace examples: each example is a window of simulated
// sensor statistics (mean temperature, humidity, vibration energy, …) and
// the binary label indicates an anomaly. Structurally it is a
// classification task whose positive class is rare.
func GenerateSensorReadings(n int, anomalyRate float64, rng *crypto.DRBG) *Dataset {
	const dim = 8
	d := &Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		anomalous := rng.Float64() < anomalyRate
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if anomalous {
			// Anomalies shift a random pair of channels.
			c := rng.Intn(dim - 1)
			x[c] += 3 + rng.Float64()*2
			x[c+1] -= 3 + rng.Float64()*2
			d.Y[i] = 1
		} else {
			d.Y[i] = -1
		}
		d.X[i] = x
	}
	return d
}

// PartitionIID splits the dataset into n near-equal random parts, the
// "uniform assignment" scenario of the gossip-vs-federated comparisons.
func (d *Dataset) PartitionIID(n int, rng *crypto.DRBG) []*Dataset {
	if n <= 0 {
		panic(fmt.Sprintf("ml: partition into %d parts", n))
	}
	perm := rng.Perm(d.Len())
	parts := make([]*Dataset, n)
	for i := range parts {
		parts[i] = &Dataset{}
	}
	for i, j := range perm {
		p := parts[i%n]
		p.X = append(p.X, d.X[j])
		p.Y = append(p.Y, d.Y[j])
	}
	return parts
}

// PartitionByLabel assigns each node examples from a single class, the
// worst-case "1-class per node" non-IID scenario of [25]. Nodes are
// assigned classes round-robin.
func (d *Dataset) PartitionByLabel(n int, rng *crypto.DRBG) []*Dataset {
	byLabel := map[float64][]int{}
	for i, y := range d.Y {
		byLabel[y] = append(byLabel[y], i)
	}
	labels := make([]float64, 0, len(byLabel))
	for y := range byLabel {
		labels = append(labels, y)
	}
	// Deterministic label order (map iteration is random).
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			if labels[j] < labels[i] {
				labels[i], labels[j] = labels[j], labels[i]
			}
		}
	}
	parts := make([]*Dataset, n)
	for i := range parts {
		parts[i] = &Dataset{}
	}
	// Round-robin nodes over labels, then deal that label's examples to
	// its nodes.
	nodesOfLabel := make(map[float64][]int)
	for node := 0; node < n; node++ {
		y := labels[node%len(labels)]
		nodesOfLabel[y] = append(nodesOfLabel[y], node)
	}
	for _, y := range labels {
		nodes := nodesOfLabel[y]
		if len(nodes) == 0 {
			continue
		}
		idx := byLabel[y]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, j := range idx {
			p := parts[nodes[i%len(nodes)]]
			p.X = append(p.X, d.X[j])
			p.Y = append(p.Y, d.Y[j])
		}
	}
	return parts
}

// TrainTestSplit splits the dataset into a training and a test part, with
// testFrac of the examples (rounded down) going to the test set.
func (d *Dataset) TrainTestSplit(testFrac float64, rng *crypto.DRBG) (train, test *Dataset) {
	perm := rng.Perm(d.Len())
	nTest := int(float64(d.Len()) * testFrac)
	testIdx, trainIdx := perm[:nTest], perm[nTest:]
	return d.Subset(trainIdx), d.Subset(testIdx)
}

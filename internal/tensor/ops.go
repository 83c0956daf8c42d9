package tensor

import "math"

// ReLUForward writes max(0, in) into out (may alias in). It is
// branch-free: an element keeps its bits under the mask of positiveMask
// and every other one, −0 and NaN included, becomes +0.
func ReLUForward(in, out []float32) {
	out = out[:len(in)]
	for i, v := range in {
		u := math.Float32bits(v)
		out[i] = math.Float32frombits(u & positiveMask(u))
	}
}

// ReLUBackward writes gradOut gated by the forward input's sign into
// gradIn (may alias gradOut): gradOut's bits where in > 0, +0 elsewhere.
func ReLUBackward(in, gradOut, gradIn []float32) {
	in, gradIn = in[:len(gradOut)], gradIn[:len(gradOut)]
	for i, g := range gradOut {
		gradIn[i] = math.Float32frombits(math.Float32bits(g) & positiveMask(math.Float32bits(in[i])))
	}
}

// positiveMask returns all ones if the float32 with bits u is > 0 and
// zero otherwise. The positive floats, denormals and +Inf included, are
// exactly the bit patterns 1 ≤ u ≤ 0x7f800000: −0 and the negatives have
// the sign bit set and NaNs lie above +Inf. u−1 wraps 0 to 0xffffffff,
// so one unsigned compare, done as a 64-bit subtraction whose sign is
// the mask, decides.
func positiveMask(u uint32) uint32 {
	return uint32((int64(u-1) - 0x7f800000) >> 63)
}

// SoftmaxRow computes an in-place numerically stable softmax over one
// row.
func SoftmaxRow(row []float32) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxv))
		row[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// SoftmaxCrossEntropy computes softmax probabilities of logits
// (batch×classes, modified in place to hold the probabilities),
// returns the mean cross-entropy loss over the batch against integer
// labels, and writes the unnormalized gradient (prob − onehot) into
// grad (same shape; may alias logits only if the caller no longer
// needs the probabilities).
func SoftmaxCrossEntropy(logits []float32, batch, classes int, labels []int, grad []float32) float32 {
	var loss float64
	for b := 0; b < batch; b++ {
		row := logits[b*classes : (b+1)*classes]
		SoftmaxRow(row)
		l := labels[b]
		p := float64(row[l])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		g := grad[b*classes : (b+1)*classes]
		copy(g, row)
		g[l] -= 1
	}
	return float32(loss / float64(batch))
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(probs []float32, batch, classes int, labels []int) float64 {
	correct := 0
	for b := 0; b < batch; b++ {
		row := probs[b*classes : (b+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[b] {
			correct++
		}
	}
	return float64(correct) / float64(batch)
}

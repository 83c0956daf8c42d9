package tensor

import "math"

// ReLUForward writes max(0, in) into out (may alias in).
func ReLUForward(in, out []float32) {
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// ReLUBackward writes gradOut gated by the forward input's sign into
// gradIn (may alias gradOut).
func ReLUBackward(in, gradOut, gradIn []float32) {
	for i := range gradOut {
		if in[i] > 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = 0
		}
	}
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

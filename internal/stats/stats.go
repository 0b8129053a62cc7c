// Package stats provides the means the experiment harness reports over
// repeated trials.
package stats

// Mean returns the arithmetic mean (0 for empty). It is generic over
// float64-underlying sample types and preserves the dimension: the mean
// of metres is metres.
func Mean[F ~float64](xs []F) F {
	if len(xs) == 0 {
		return 0
	}
	sum := F(0)
	for _, x := range xs {
		sum += x
	}
	return sum / F(len(xs))
}

// MeanInt returns the mean of integer samples as a raw float64.
func MeanInt[I ~int](xs []I) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := I(0)
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

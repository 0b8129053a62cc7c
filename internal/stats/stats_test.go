package stats

import "testing"

func TestMeanHelpers(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Mean[float64](nil) != 0 || MeanInt[int](nil) != 0 {
		t.Fatal("empty means should be 0")
	}
	if MeanInt([]int{1, 2}) != 1.5 {
		t.Fatal("MeanInt wrong")
	}
}

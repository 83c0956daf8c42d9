package main

import (
	"math"
	"reflect"
	"testing"
)

func TestSizes(t *testing.T) {
	for _, tc := range []struct {
		min, max int64
		want     []int64 // nil: rejected
	}{
		{1, 8, []int64{1, 2, 4, 8}},
		{3, 20, []int64{3, 6, 12}},
		{5, 5, []int64{5}},
		{2 << 20, 8 << 20, []int64{2 << 20, 4 << 20, 8 << 20}},
		{1 << 62, math.MaxInt64, []int64{1 << 62}},
		{math.MaxInt64, math.MaxInt64, []int64{math.MaxInt64}},
		{0, 8, nil},
		{-4, 8, nil},
		{9, 8, nil},
	} {
		got, err := sizes(tc.min, tc.max)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("sizes(%d, %d) = %v, %v; want %v", tc.min, tc.max, got, err, tc.want)
		}
	}
	// From 1 to the largest int64, every power of two fits: none overflows.
	got, err := sizes(1, math.MaxInt64)
	if err != nil || len(got) != 63 || got[62] != 1<<62 {
		t.Errorf("sizes(1, MaxInt64): %d sizes ending at %d, %v; want 63 ending at 2^62", len(got), got[len(got)-1], err)
	}
}

// Package collector models the M-collector of the paper: a mobile robot or
// vehicle with a powerful transceiver that departs from the static data
// sink, pauses at planned stop positions ("polling points") to receive
// single-hop uploads from nearby sensors, and returns to the sink. The
// package turns a planned tour into time figures and reads and writes
// plans as JSON.
package collector

import "mobicol/internal/geom"

// Spec is the kinematic and radio profile of one M-collector. The paper
// cites practical mobile systems moving at 0.1–2 m/s.
type Spec struct {
	Speed      geom.MetersPerSecond // travel speed
	UploadTime float64              // seconds to poll + receive one sensor's packet
}

// DefaultSpec matches the paper's running example: 1 m/s and a nominal
// 0.1 s per-packet polling/upload cost.
func DefaultSpec() Spec { return Spec{Speed: 1, UploadTime: 0.1} }

// TourPlan is an executed-form data-gathering tour: the stop sequence
// beginning and ending at the sink (the sink itself is not listed), plus
// the sensor-to-stop upload assignment.
type TourPlan struct {
	Sink  geom.Point
	Stops []geom.Point
	// UploadAt[sensor] is the index into Stops where that sensor
	// uploads, or -1 for sensors served by no stop (never the case for
	// valid single-hop plans; baselines may produce it).
	UploadAt []int
}

// Length returns the closed tour length: sink -> stops... -> sink.
func (tp *TourPlan) Length() geom.Meters {
	if len(tp.Stops) == 0 {
		return 0
	}
	total := tp.Sink.Dist(tp.Stops[0])
	for i := 1; i < len(tp.Stops); i++ {
		total += tp.Stops[i-1].Dist(tp.Stops[i])
	}
	return geom.Meters(total + tp.Stops[len(tp.Stops)-1].Dist(tp.Sink))
}

// StopOf returns the index into Stops of the stop sensor i uploads at,
// or -1 when it has none. An UploadAt entry outside [0, len(Stops))
// counts as unserved wherever a plan is read.
func (tp *TourPlan) StopOf(i int) int {
	if s := tp.UploadAt[i]; s >= 0 && s < len(tp.Stops) {
		return s
	}
	return -1
}

// SensorsAt returns how many sensors upload at each stop.
func (tp *TourPlan) SensorsAt() []int {
	counts := make([]int, len(tp.Stops))
	for i := range tp.UploadAt {
		if s := tp.StopOf(i); s >= 0 {
			counts[s]++
		}
	}
	return counts
}

// Served returns the number of sensors with an upload stop.
func (tp *TourPlan) Served() int {
	c := 0
	for i := range tp.UploadAt {
		if tp.StopOf(i) >= 0 {
			c++
		}
	}
	return c
}

// RoundTime returns the duration of one full gathering round: drive the
// tour and pause UploadTime per served sensor. This is the paper's data
// collection latency for mobile schemes.
func (tp *TourPlan) RoundTime(spec Spec) float64 {
	if spec.Speed <= 0 {
		//mdglint:ignore nopanic Spec speeds come from validated configs or literals; zero speed would silently yield +Inf latency
		panic("collector: non-positive speed")
	}
	return tp.Length().TravelTime(spec.Speed) + float64(tp.Served())*spec.UploadTime
}

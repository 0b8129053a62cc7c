package wsn

import (
	"fmt"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
)

// Placement selects how sensors are scattered over the field.
type Placement int

const (
	// Uniform scatters sensors independently and uniformly at random —
	// the paper's deployment model.
	Uniform Placement = iota
	// GridJitter places sensors on a regular lattice perturbed by
	// Gaussian noise, modelling planned deployments.
	GridJitter
	// Clustered draws sensors from a mixture of Gaussian clusters,
	// modelling interest-driven deployments (and producing the
	// disconnected topologies that motivate mobile collection).
	Clustered
	// Ring scatters sensors in an annulus around the field centre,
	// modelling perimeter-surveillance deployments.
	Ring
	// Corridor scatters sensors in a thin horizontal band, modelling
	// road/pipeline monitoring.
	Corridor
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case GridJitter:
		return "grid-jitter"
	case Clustered:
		return "clustered"
	case Ring:
		return "ring"
	case Corridor:
		return "corridor"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Config describes a deployment to generate.
type Config struct {
	N         int       // number of sensors
	FieldSide float64   // field is FieldSide × FieldSide metres
	Range     float64   // transmission range R_s
	Placement Placement // spatial distribution (default Uniform)
	Clusters  int       // number of clusters for Clustered (default 5)
	Seed      uint64    // RNG seed

	// SinkAtCorner puts the sink at the field origin instead of the
	// paper's default centre placement.
	SinkAtCorner bool
}

// Deploy generates a network according to cfg. The same cfg always yields
// the same network. Invalid configurations are reported as errors.
func Deploy(cfg Config) (*Network, error) {
	if cfg.N < 0 {
		return nil, fmt.Errorf("wsn: negative sensor count %d", cfg.N)
	}
	if !(cfg.FieldSide > 0) {
		return nil, fmt.Errorf("wsn: field side %v is not positive", cfg.FieldSide)
	}
	if !(cfg.Range > 0) {
		return nil, fmt.Errorf("wsn: transmission range %v is not positive", cfg.Range)
	}
	field := geom.Square(cfg.FieldSide)
	sink := field.Center()
	if cfg.SinkAtCorner {
		sink = field.Min
	}
	// Every placement lies inside the field, so the field, sink and
	// range alone decide whether squared distances overflow.
	if err := New(nil, sink, cfg.Range, field).Validate(); err != nil {
		return nil, err
	}
	s := rng.New(cfg.Seed)
	pts := make([]geom.Point, 0, cfg.N)
	switch cfg.Placement {
	case Uniform:
		for i := 0; i < cfg.N; i++ {
			pts = append(pts, geom.Pt(s.Uniform(0, cfg.FieldSide), s.Uniform(0, cfg.FieldSide)))
		}
	case GridJitter:
		pts = gridJitter(s, cfg.N, cfg.FieldSide)
	case Clustered:
		pts = clustered(s, cfg.N, cfg.FieldSide, cfg.Clusters)
	case Ring:
		pts = ring(s, cfg.N, cfg.FieldSide)
	case Corridor:
		pts = corridor(s, cfg.N, cfg.FieldSide)
	default:
		return nil, fmt.Errorf("wsn: unknown placement %v", cfg.Placement)
	}
	return New(pts, sink, cfg.Range, field), nil
}

// MustDeploy is Deploy for known-good configurations (tests, examples,
// fixed experiment tables). It panics on a config Deploy would reject.
func MustDeploy(cfg Config) *Network {
	nw, err := Deploy(cfg)
	if err != nil {
		//mdglint:ignore nopanic Must-variant for compile-time-constant configs, mirroring regexp.MustCompile
		panic(err)
	}
	return nw
}

func gridJitter(s *rng.Source, n int, side float64) []geom.Point {
	// Choose the smallest square lattice with at least n cells, jitter
	// each chosen cell centre, and keep the first n.
	cells := 1
	for cells*cells < n {
		cells++
	}
	step := side / float64(cells)
	field := geom.Square(side)
	pts := make([]geom.Point, 0, n)
	order := s.Perm(cells * cells)
	for _, c := range order {
		if len(pts) == n {
			break
		}
		cx := (float64(c%cells) + 0.5) * step
		cy := (float64(c/cells) + 0.5) * step
		p := geom.Pt(cx+s.NormMeanStd(0, step/4), cy+s.NormMeanStd(0, step/4))
		pts = append(pts, field.Clamp(p))
	}
	return pts
}

func clustered(s *rng.Source, n int, side float64, k int) []geom.Point {
	if k <= 0 {
		k = 5
	}
	field := geom.Square(side)
	centres := make([]geom.Point, k)
	for i := range centres {
		centres[i] = geom.Pt(s.Uniform(0.15*side, 0.85*side), s.Uniform(0.15*side, 0.85*side))
	}
	spread := side / 12
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		c := centres[s.Intn(k)]
		p := geom.Pt(c.X+s.NormMeanStd(0, spread), c.Y+s.NormMeanStd(0, spread))
		pts = append(pts, field.Clamp(p))
	}
	return pts
}

func ring(s *rng.Source, n int, side float64) []geom.Point {
	field := geom.Square(side)
	centre := field.Center()
	inner, outer := 0.3*side, 0.45*side
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		r := s.Uniform(inner, outer)
		theta := s.Uniform(0, 2*3.141592653589793)
		pts = append(pts, field.Clamp(centre.Polar(r, theta)))
	}
	return pts
}

func corridor(s *rng.Source, n int, side float64) []geom.Point {
	band := side / 8
	mid := side / 2
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Pt(s.Uniform(0, side), s.Uniform(mid-band, mid+band)))
	}
	return pts
}

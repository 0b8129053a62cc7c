package wsn

import (
	"encoding/json"
	"fmt"
	"io"

	"mobicol/internal/geom"
)

// fileFormat is the on-disk JSON schema for a deployed network, used by
// cmd/wsngen and cmd/mdgplan to pass deployments between tools.
type fileFormat struct {
	Sensors [][2]float64 `json:"sensors"`
	Sink    [2]float64   `json:"sink"`
	Range   float64      `json:"range"`
	Field   [4]float64   `json:"field"` // minX, minY, maxX, maxY
}

// WriteJSON encodes the network to w.
func (nw *Network) WriteJSON(w io.Writer) error {
	ff := fileFormat{
		Sensors: make([][2]float64, nw.N()),
		Sink:    [2]float64{nw.Sink.X, nw.Sink.Y},
		Range:   nw.Range,
		Field:   [4]float64{nw.Field.Min.X, nw.Field.Min.Y, nw.Field.Max.X, nw.Field.Max.Y},
	}
	for i, n := range nw.Nodes {
		ff.Sensors[i] = [2]float64{n.Pos.X, n.Pos.Y}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ff)
}

// ReadJSON decodes a network previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Network, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("wsn: decode network: %w", err)
	}
	if ff.Range <= 0 {
		return nil, fmt.Errorf("wsn: network file has non-positive range %v", ff.Range)
	}
	pts := make([]geom.Point, len(ff.Sensors))
	for i, s := range ff.Sensors {
		pts[i] = geom.Pt(s[0], s[1])
	}
	field := geom.NewRect(geom.Pt(ff.Field[0], ff.Field[1]), geom.Pt(ff.Field[2], ff.Field[3]))
	nw := New(pts, geom.Pt(ff.Sink[0], ff.Sink[1]), ff.Range, field)
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return nw, nil
}

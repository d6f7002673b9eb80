package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"mptcpgo"
	"mptcpgo/internal/experiments"
)

// outcome is one run of a workload: the scenario's Result as encoded bytes
// plus the wall-clock and deterministic figures the metrics derive from.
type outcome struct {
	encoded  []byte
	wall     time.Duration // entry call until the Result is encoded
	encode   time.Duration
	cal      time.Duration // mean calibration kernel time just before and just after the run
	peakHeap float64       // largest live heap the GC marked during the run

	attempted int     // operations attempted: connections, flows or members
	failed    int     // operations the program failed to carry out
	completed int     // operations that finished: flows done, members intact
	payload   float64 // application payload bytes (see README.md per workload)
	events    uint64  // simulator events

	// counts holds per-layer figures read from the Result or from the
	// layers' own counters (bulk), keyed by per-layer metric name.
	counts map[string]float64
}

func (o *outcome) hash() string {
	sum := sha256.Sum256(o.encoded)
	return hex.EncodeToString(sum[:])
}

// encodeResult renders res as JSON into o, timing the encoder; wall is taken
// from start once the bytes are in hand.
func (o *outcome) encodeResult(res *mptcpgo.Result, start time.Time) error {
	t0 := time.Now()
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	o.encoded = buf.Bytes()
	o.encode = time.Since(t0)
	o.wall = time.Since(start)
	return nil
}

// findTable returns the first table of res whose first columns match cols.
func findTable(res *mptcpgo.Result, cols ...string) (*experiments.Table, error) {
	for _, t := range res.Tables {
		if len(t.Columns) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if t.Columns[i] != c {
				match = false
				break
			}
		}
		if match {
			return t, nil
		}
	}
	return nil, fmt.Errorf("result %q has no table with columns %v", res.ID, cols)
}

// tableRows returns every row of t as a column-name map.
func tableRows(t *experiments.Table) []map[string]string {
	out := make([]map[string]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		m := make(map[string]string, len(t.Columns))
		for i, c := range t.Columns {
			if i < len(r) {
				m[c] = r[i]
			}
		}
		out = append(out, m)
	}
	return out
}

// allRow returns the row of t whose first cell is "all".
func allRow(t *experiments.Table) (map[string]string, error) {
	for _, r := range tableRows(t) {
		if r[t.Columns[0]] == "all" {
			return r, nil
		}
	}
	return nil, fmt.Errorf("table %q has no \"all\" row", t.Title)
}

// ints parses the named integer cells of a row.
func ints(row map[string]string, cols ...string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		v, err := strconv.Atoi(row[c])
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", c, err)
		}
		out[i] = v
	}
	return out, nil
}

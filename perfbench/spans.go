package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"thermflow/api"
)

// span is one timed interval in the traced run's span file: the
// server's own spans as read from /v2/jobs/{id}/trace, and the
// benchmark's spans around each client job and each layer call.
type span struct {
	Name     string            `json:"name"`
	Service  string            `json:"service"`
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id,omitempty"`
	ParentID string            `json:"parent_id,omitempty"`
	JobID    string            `json:"job_id,omitempty"`
	StartUS  int64             `json:"start_us"`
	EndUS    int64             `json:"end_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

func (s span) durUS() int64 { return s.EndUS - s.StartUS }

// fromWire converts a span served by the pool.
func fromWire(jobID string, ws api.TraceSpan) span {
	return span{
		Name: ws.Name, Service: ws.Service,
		TraceID: ws.TraceID, SpanID: ws.SpanID, ParentID: ws.ParentID,
		JobID: jobID, StartUS: ws.StartUS, EndUS: ws.StartUS + ws.DurationUS,
		Attrs: ws.Attrs,
	}
}

// selfUS is a span's self time: its duration minus the part of its
// interval that the given spans cover. Overlapping coverers count once
// and coverage outside the parent's interval is ignored.
func selfUS(parent span, coverers []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range coverers {
		lo, hi := max(c.StartUS, parent.StartUS), min(c.EndUS, parent.EndUS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.durUS() - covered
}

// appendSpans appends one JSON object per span to path.
func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o666)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

package main

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"

	"pase"
	"pase/internal/fleet"
)

// handleMetrics serves the /v1/stats snapshot in Prometheus text format 0.0.4,
// hand-rolled: an exporter dependency would buy nothing. A field added to the
// stats structs is exported with no edit here.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.stats()
	var b strings.Builder
	writeSection(&b, "pase_", "", []daemonStats{st}, nil)
	writeSection(&b, "pase_", "planner.", []pase.PlannerStats{st.Planner}, nil)
	if fst := st.Fleet; fst != nil {
		writeSection(&b, "pase_fleet_", "fleet.", []fleet.Stats{*fst}, nil)
		writeSection(&b, "pase_fleet_peer_", "fleet.peers[].", fst.Peers, func(p fleet.PeerStats) string {
			return fmt.Sprintf("{peer=%q}", p.ID)
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// writeSection writes one series per int, float64 or bool field of T, named
// prefix + its json key: a counter with a _total suffix, or a gauge when the
// field is tagged metric:"gauge"; metric:"-" skips the field. Each row is one
// sample, labelled by label(row) when label is non-nil, and a bool is 0 or
// 1. The HELP line names the /v1/stats field, whose doc comment describes it.
func writeSection[T any](b *strings.Builder, prefix, path string, rows []T, label func(T) string) {
	t := reflect.TypeFor[T]()
	for i := range t.NumField() {
		f := t.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
		default:
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		name, typ := prefix+key+"_total", "counter"
		switch f.Tag.Get("metric") {
		case "-":
			continue
		case "gauge":
			name, typ = prefix+key, "gauge"
		}
		fmt.Fprintf(b, "# HELP %s /v1/stats %s%s\n# TYPE %s %s\n", name, path, key, name, typ)
		for _, row := range rows {
			v := reflect.ValueOf(row).Field(i).Interface()
			if on, ok := v.(bool); ok {
				v = 0
				if on {
					v = 1
				}
			}
			var labels string
			if label != nil {
				labels = label(row)
			}
			fmt.Fprintf(b, "%s%s %v\n", name, labels, v)
		}
	}
}

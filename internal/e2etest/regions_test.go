package e2etest

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"thermflow"
	"thermflow/api"
	"thermflow/client"
)

// TestRegionJobDefaultSolverAnswersRegionID submits region jobs that
// leave the solver unset, through the gateway and straight to a
// backend. Kind "region" is an alias for solver "region", resolved
// where gateways and backends both resolve specs, so every answer must
// come under the ID of the {solver: region} spec with that plain job's
// result and the in-process compile's, byte for byte.
func TestRegionJobDefaultSolverAnswersRegionID(t *testing.T) {
	c := NewCluster(t, Options{Backends: 2, Workers: 2})
	c.WaitRing(t, 2)
	ctx := context.Background()

	src := thermflow.GenerateMega(thermflow.MegaOptions{
		Seed: 3, Arms: 4, Depth: 1, OpsPerBlock: 4, Pressure: 8, TripCount: 8,
	}).Fn.String()
	prog, err := thermflow.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(r *api.CompileResponse) []byte {
		cp := *r
		cp.Cached = false
		b, _ := json.Marshal(cp)
		return b
	}
	for _, tc := range []struct {
		name string
		opts thermflow.Options // as submitted with kind "region"
	}{
		{"regions=1", thermflow.Options{Regions: 1}},
		{"regions=4", thermflow.Options{Regions: 4}},
		{"slack=0.02", thermflow.Options{Regions: 4, RegionDelta: 0.02}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			regionOpts := tc.opts
			regionOpts.Solver = thermflow.SolverRegion
			spec, err := thermflow.JobSpecFromSource(src, "", regionOpts)
			if err != nil {
				t.Fatal(err)
			}
			wantID, err := spec.ID()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := prog.Compile(regionOpts)
			if err != nil {
				t.Fatal(err)
			}
			want := wire(api.ResponseFor(ref, false))

			for _, sub := range []struct {
				via string
				cl  *client.Client
				req api.JobRequest
			}{
				{"backend", c.Backends[0].Client(), api.JobRequest{Kind: "region", Program: src, Options: tc.opts}},
				{"gateway", c.Client(), api.JobRequest{Kind: "region", Program: src, Options: tc.opts}},
				{"gateway plain", c.Client(), api.JobRequest{Program: src, Options: regionOpts}},
			} {
				st, err := sub.cl.RunJob(ctx, sub.req)
				if err != nil {
					t.Fatalf("%s: %v", sub.via, err)
				}
				if st.State != "done" || st.Result == nil {
					t.Fatalf("%s: job not done: state=%s err=%s", sub.via, st.State, st.Error)
				}
				if st.ID != wantID {
					t.Fatalf("%s: answered under ID %s, want the region spec's %s", sub.via, st.ID, wantID)
				}
				if got := wire(st.Result); !bytes.Equal(got, want) {
					t.Fatalf("%s: result differs from the in-process compile:\n%s\nvs\n%s", sub.via, got, want)
				}
			}
		})
	}
}

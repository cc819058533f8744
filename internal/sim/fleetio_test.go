package sim

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/store"
)

// TestInjectAdoptsPublishedEntry: a fleet coordinator injects results its
// workers computed, and a worker sharing the store has already published
// the same bytes. Inject must adopt a valid entry file without writing
// anything; over a missing or corrupt file it publishes its own copy. In
// every case Get then serves the injected result.
func TestInjectAdoptsPublishedEntry(t *testing.T) {
	cfg := diskTestConfigs(1)[0]
	profile := cacheTestProfiles()[0]
	res, err := NewRunner().RunE(context.Background(), cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	want := resultEntry(&res)
	addr := PointKey(cfg, profile)

	for _, tc := range []struct {
		name      string
		onDisk    func(t *testing.T, dir, path string) // what a worker left behind
		wantPuts  uint64
		noWriting bool // every write through the seam fails: none may be tried
	}{
		{
			name: "valid",
			onDisk: func(t *testing.T, dir, _ string) {
				worker, err := store.Open(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := worker.Put(addr, &want); err != nil {
					t.Fatal(err)
				}
			},
			noWriting: true,
		},
		{
			name:     "missing",
			onDisk:   func(*testing.T, string, string) {},
			wantPuts: 1,
		},
		{
			name: "corrupt",
			onDisk: func(t *testing.T, _, path string) {
				data := store.EncodeEntry(&want)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantPuts: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var faults []faultinject.DiskFault
			if tc.noWriting {
				faults = append(faults, faultinject.DiskFault{Kind: faultinject.DiskENOSPC, Op: faultinject.OpWrite})
			}
			// The coordinator's store opens before the worker publishes.
			st, err := store.Open(dir, faultinject.NewDiskFS(nil, faults...))
			if err != nil {
				t.Fatal(err)
			}
			name := addr.String()
			tc.onDisk(t, dir, filepath.Join(dir, name[:2], name+store.EntrySuffix))

			c := NewResultCache()
			c.SetDisk(st)
			if !c.Inject(cfg, profile, res) {
				t.Fatal("Inject into an empty cache reported the point present")
			}
			ts := c.TierStats()
			if ts.DiskPuts != tc.wantPuts || ts.DiskErrors != 0 || ts.Disk.WriteErrors != 0 {
				t.Fatalf("disk puts %d, errors %d, store write errors %d; want %d puts and no errors",
					ts.DiskPuts, ts.DiskErrors, ts.Disk.WriteErrors, tc.wantPuts)
			}
			got, ok, err := st.Get(addr)
			if err != nil || !ok || got != want {
				t.Fatalf("Get after Inject: ok=%v err=%v identical=%v", ok, err, got == want)
			}
		})
	}
}

package faultinject

import "testing"

func TestParseProcFaults(t *testing.T) {
	cases := []struct {
		spec string
		want ProcFaults
	}{
		{"", ProcFaults{}},
		{"kill-after=3", ProcFaults{KillAfterPoints: 3}},
		{"freeze-after=2", ProcFaults{FreezeAfterPoints: 2}},
		{"lease-enospc", ProcFaults{LeaseENOSPC: true}},
		{"kill-after=5,lease-enospc", ProcFaults{KillAfterPoints: 5, LeaseENOSPC: true}},
		{" kill-after=1 , freeze-after=4 ", ProcFaults{KillAfterPoints: 1, FreezeAfterPoints: 4}},
	}
	for _, c := range cases {
		got, err := ParseProcFaults(c.spec)
		if err != nil {
			t.Errorf("ParseProcFaults(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseProcFaults(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{"kill-after=0", "kill-after=x", "freeze-after=-1", "nonsense", "kill-after"} {
		if _, err := ParseProcFaults(bad); err == nil {
			t.Errorf("ParseProcFaults(%q) accepted", bad)
		}
	}
}

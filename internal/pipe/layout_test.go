package pipe

import (
	"testing"
	"unsafe"
)

// TestInstLayout pins the in-flight record's host-memory layout: its size,
// and that every field a stage reads each cycle or each instruction ends
// within the record's first 128 bytes (two host cache lines). A field added
// later, or a reorder, fails here instead of silently spreading the cycle
// loop's working set back over more lines.
func TestInstLayout(t *testing.T) {
	const maxSize, hotEnd = 208, 128
	var in inst
	if got := unsafe.Sizeof(in); got > maxSize {
		t.Errorf("unsafe.Sizeof(inst{}) = %d B, want at most %d", got, maxSize)
	}
	hot := []struct {
		name       string
		off, width uintptr
	}{
		{"enterDecode", unsafe.Offsetof(in.enterDecode), unsafe.Sizeof(in.enterDecode)},
		{"enterWindow", unsafe.Offsetof(in.enterWindow), unsafe.Sizeof(in.enterWindow)},
		{"epoch", unsafe.Offsetof(in.epoch), unsafe.Sizeof(in.epoch)},
		{"wpos", unsafe.Offsetof(in.wpos), unsafe.Sizeof(in.wpos)},
		{"issued", unsafe.Offsetof(in.issued), unsafe.Sizeof(in.issued)},
		{"done", unsafe.Offsetof(in.done), unsafe.Sizeof(in.done)},
		{"squashed", unsafe.Offsetof(in.squashed), unsafe.Sizeof(in.squashed)},
		{"hasBarrier", unsafe.Offsetof(in.hasBarrier), unsafe.Sizeof(in.hasBarrier)},
		{"memOp", unsafe.Offsetof(in.memOp), unsafe.Sizeof(in.memOp)},
		{"loadOp", unsafe.Offsetof(in.loadOp), unsafe.Sizeof(in.loadOp)},
		{"storeOp", unsafe.Offsetof(in.storeOp), unsafe.Sizeof(in.storeOp)},
		{"nwait", unsafe.Offsetof(in.nwait), unsafe.Sizeof(in.nwait)},
		{"fuKind", unsafe.Offsetof(in.fuKind), unsafe.Sizeof(in.fuKind)},
		{"execLat", unsafe.Offsetof(in.execLat), unsafe.Sizeof(in.execLat)},
	}
	for _, f := range hot {
		if end := f.off + f.width; end > hotEnd {
			t.Errorf("inst.%s ends at byte %d, want within the first %d", f.name, end, hotEnd)
		}
	}
}

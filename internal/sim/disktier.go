package sim

// Disk tier plumbing: content addressing of the canonical cache key and the
// Result <-> store.Entry conversions. The store itself (framing, checksums,
// atomic writes, quarantine) lives in internal/store; this file is the only
// place that knows how a simulation point becomes a 256-bit address.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"selthrottle/internal/store"
)

// diskKeySchema versions the content address itself. It is hashed into
// every key, so changing the canonicalization rules, the encoding below,
// the shape of Config or Profile, or the meaning of any field only requires
// bumping this string: old entries become unreachable (cold cache,
// recomputed and republished under the new schema), never wrongly served.
const diskKeySchema = "selthrottle/resultcache/key/v3"

// diskKeyOf content-addresses a canonical cache key: the SHA-256 of the
// schema string followed by a binary walk of the two canonicalized value
// structs (see appendKeyValue).
func diskKeyOf(key cacheKey) store.Key {
	var buf [1024]byte // holds today's encoding (under 1 KB) without growing
	b := appendKeyString(buf[:0], diskKeySchema)
	b = appendKeyValue(b, reflect.ValueOf(&key.cfg).Elem())
	b = appendKeyValue(b, reflect.ValueOf(&key.profile).Elem())
	return sha256.Sum256(b)
}

// appendKeyValue appends the canonical binary encoding of v: struct fields
// in declaration order and array elements in index order, integers and
// bools as 8-byte little-endian words, floats as their IEEE-754 bits, and
// strings length-prefixed so adjacent strings cannot run together. Every
// key type has a fixed shape, so the concatenation is unambiguous. The one
// interface field, Pipe.Fault, is always nil in a cacheable key
// (runCachedE bypasses both tiers for faulted runs) and contributes nothing.
func appendKeyValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendKeyValue(b, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendKeyValue(b, v.Index(i))
		}
	case reflect.Bool:
		var w uint64
		if v.Bool() {
			w = 1
		}
		b = binary.LittleEndian.AppendUint64(b, w)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b = binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		b = appendKeyString(b, v.String())
	case reflect.Interface:
		if !v.IsNil() {
			panic(fmt.Sprintf("sim: content address of a %s carrying a %s", v.Type(), v.Elem().Type())) // invariant: cacheable keys never carry a fault hook
		}
	default:
		panic(fmt.Sprintf("sim: content address cannot encode %s", v.Type())) // invariant: Config and Profile hold plain values only
	}
	return b
}

// appendKeyString appends s with its length prefix.
func appendKeyString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// resultEntry strips a Result to its persisted payload. Config and
// Benchmark are deliberately dropped: they are the lookup key's identity,
// rewritten onto the Result on the way out of every tier.
func resultEntry(r *Result) store.Entry {
	return store.Entry{
		Stats:    r.Stats,
		Power:    r.Power,
		IPC:      r.IPC,
		MissRate: r.MissRate,
		Seconds:  r.Seconds,
		Energy:   r.Energy,
		EDelay:   r.EDelay,
		AvgPower: r.AvgPower,
	}
}

// entryResult rebuilds a Result from its persisted payload; the caller
// stamps Config and Benchmark.
func entryResult(e *store.Entry) Result {
	return Result{
		Stats:    e.Stats,
		Power:    e.Power,
		IPC:      e.IPC,
		MissRate: e.MissRate,
		Seconds:  e.Seconds,
		Energy:   e.Energy,
		EDelay:   e.EDelay,
		AvgPower: e.AvgPower,
	}
}

// UseDiskStore opens (creating if necessary) the persistent result store at
// dir and attaches it as the process-wide cache's disk tier. The open runs
// the store's recovery scan, so a directory holding torn or corrupt entries
// — a previous process killed mid-write — opens cleanly with the damage
// quarantined. Returns the number of entries available.
func UseDiskStore(dir string) (entries int, err error) {
	st, err := store.Open(dir, nil)
	if err != nil {
		return 0, err
	}
	processCache.SetDisk(st)
	return st.Len(), nil
}

// AttachDiskStore attaches an already-open store (possibly on an injected
// fault FS) as the process-wide cache's disk tier; nil detaches. Returns
// the previous store. Tests and services that manage their own store
// lifecycle use this; UseDiskStore is the one-call path.
func AttachDiskStore(st *store.Store) (previous *store.Store) {
	return processCache.SetDisk(st)
}

// DiskStore returns the process-wide cache's attached disk tier, if any —
// the handle the commands use to configure store-level policy (quarantine
// warnings) after UseDiskStore.
func DiskStore() *store.Store { return processCache.Disk() }

package sim

// Wire transport of results for the networked fleet. A remotely computed
// Result crosses the network as the store codec's exact binary framing
// (magic, version, CRC-32C), NOT as JSON numbers: the codec round-trips
// every float bit-identically (proven by the store's fuzz suite), while a
// decimal rendering would be a second, lossier serialization whose
// round-trip error could break the byte-identity guarantee the whole
// pipeline is built on. The same bytes that would land in the store's
// entry file are what travel; corruption in transit fails the CRC exactly
// as on-disk corruption does.

import (
	"selthrottle/internal/prog"
	"selthrottle/internal/store"
)

// EncodeResultEntry renders a Result as store-codec bytes (the persisted
// payload: Config and Benchmark are identity, stripped as always).
func EncodeResultEntry(r *Result) []byte {
	e := resultEntry(r)
	return store.EncodeEntry(&e)
}

// DecodeResultEntry decodes store-codec bytes back into a Result. The
// caller stamps Config and Benchmark. Corrupt or truncated bytes return
// the codec's typed error (store.ErrCorrupt).
func DecodeResultEntry(data []byte) (Result, error) {
	e, err := store.DecodeEntry(data)
	if err != nil {
		return Result{}, err
	}
	return entryResult(&e), nil
}

// Inject publishes an externally computed Result for (cfg, profile) into
// the cache: the memory tier immediately, the disk tier write-through. It
// reports whether the point was newly inserted; an existing entry —
// completed or in flight — is left untouched (false), because a local
// leader may already be computing it and its waiters must be released by
// that leader, never short-circuited. Injection trusts the caller that res
// really is the point's pure result; in the fleet that trust is grounded
// in content addressing (the remote worker computed the same key). The
// disk tier adopts a valid entry already on disk instead of writing it
// again: a fleet worker sharing the store published the point before it
// answered, so only a missing or damaged file costs a Put.
func (c *ResultCache) Inject(cfg Config, profile prog.Profile, res Result) bool {
	key := cacheKey{canonicalConfig(cfg), canonicalProfile(profile)}
	e := &cacheEntry{key: key, done: make(chan struct{}), res: res}
	c.mu.Lock()
	if _, exists := c.entries[key]; exists {
		c.mu.Unlock()
		return false
	}
	c.entries[key] = e
	c.publishLocked(e)
	c.mu.Unlock()
	close(e.done)
	if d := c.disk.Load(); d != nil {
		addr := diskKeyOf(key)
		if d.Adopt(addr) {
			return true
		}
		ent := resultEntry(&res)
		if derr := d.Put(addr, &ent); derr != nil {
			c.diskErrs.Add(1)
		} else {
			c.diskPuts.Add(1)
		}
	}
	return true
}

// InjectResult publishes an externally computed Result into the
// process-wide cache (see ResultCache.Inject).
func InjectResult(cfg Config, profile prog.Profile, res Result) bool {
	return processCache.Inject(cfg, profile, res)
}

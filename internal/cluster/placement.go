package cluster

// Placement: which member owns a tenant. The default assignment is the
// same FNV-1a hash the runtime's event pump shards event names by, taken
// modulo the sorted live member list — every node computes the same answer
// from the same member view with no coordination. Explicit migrations
// punch through with an override entry (tenant -> member) that is
// replicated on every heartbeat, so a moved tenant stays moved even though
// the hash disagrees.

// fnv32 is FNV-1a, the pump's shard hash applied to tenant names.
func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// ownerOf resolves a tenant to its owning member given a live member view.
// Overrides win when they point at a live member; otherwise the hash
// decides. Callers must hold n.mu or otherwise own the snapshot.
func (n *Node) ownerOf(tenant string, members []string) string {
	if len(members) == 0 {
		return n.cfg.NodeID
	}
	if id, ok := n.overrides[tenant]; ok {
		for _, m := range members {
			if m == id {
				return id
			}
		}
		// Override points at a dead member; fall through to the hash.
	}
	return members[int(fnv32(tenant))%len(members)]
}

// Owner returns the member currently responsible for a tenant.
func (n *Node) Owner(tenant string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ownerOf(tenant, n.membersLocked())
}

// mergeOverrides folds a peer's replicated placement map into ours:
// last-writer-wins per tenant, restricted to members we consider live so a
// stale map cannot resurrect a dead owner. Callers must hold n.mu.
func (n *Node) mergeOverridesLocked(theirs map[string]any) {
	if len(theirs) == 0 {
		return
	}
	members := n.membersLocked()
	live := make(map[string]bool, len(members))
	for _, m := range members {
		live[m] = true
	}
	for t, v := range theirs {
		id, ok := v.(string)
		if !ok || !live[id] {
			continue
		}
		n.overrides[t] = id
	}
}

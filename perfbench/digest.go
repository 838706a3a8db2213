package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// embeddedReference holds the digest of every workload's simulated
// results at the default seed: the rendered artifact plus each job's own
// counters. A repetition whose digest differs counts all its jobs and
// tasks as failed.
//
//go:embed reference.json
var embeddedReference []byte

// loadReference parses the embedded reference digests.
func loadReference() (map[string]string, error) {
	ref := map[string]string{}
	if err := json.Unmarshal(embeddedReference, &ref); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return ref, nil
}

// refKey names a configuration in the reference file.
func refKey(cfg config) string {
	size := "quick"
	if cfg.tiny {
		size = "tiny"
	}
	return fmt.Sprintf("%s %s seed=%d", cfg.workload.name, size, cfg.seed)
}

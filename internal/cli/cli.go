// Package cli holds the small shared command-line conventions of the
// cmd/* tools. The one rule it currently enforces: a command that takes
// no positional arguments must reject stray ones loudly (usage + exit 2)
// instead of silently running its defaults — `figures tyop` looking exactly
// like a successful default run is how typo'd CI steps go green.
package cli

import (
	"fmt"
	"strings"
)

// RejectArgs returns an error naming any unexpected positional arguments.
// Commands call it right after flag.Parse and route the error to their
// usage + exit(2) path.
func RejectArgs(command string, args []string) error {
	if len(args) == 0 {
		return nil
	}
	return fmt.Errorf("%s: unexpected argument(s): %s", command, strings.Join(args, " "))
}

#!/usr/bin/env bash
# Ticket-poll gate: solver hot paths must not grow unpolled loops.
#
# Every long-running loop in the files below is expected to poll its
# governance ticket (see `gsb_core::govern`) often enough that a
# deadline, budget trip, or cancellation is observed within one polling
# interval. Poll sites are marked with a literal
#
#     // ticket.check poll site (<where/stride>)
#
# comment next to the check. This script pins, per file, the current
# loop count and the minimum marker count. Adding a loop to a hot path
# trips the gate until you either poll the ticket inside it (and mark
# the site) or consciously decide the loop is bounded-tiny — in both
# cases bump the pinned numbers here in the same change, so the review
# sees the decision.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

check() {
  local file=$1 max_loops=$2 min_markers=$3
  local loops markers
  loops=$(grep -cE '^[[:space:]]*(loop \{|while[ (])' "$file" || true)
  markers=$(grep -c 'ticket.check poll site' "$file" || true)
  if [ "$loops" -gt "$max_loops" ]; then
    echo "FAIL: $file has $loops loops (pinned $max_loops)." >&2
    echo "  A new loop in a solver hot path must poll its ticket (mark the" >&2
    echo "  site with '// ticket.check poll site (...)'); then bump the" >&2
    echo "  pinned counts in ci/check_ticket_polls.sh in the same change." >&2
    status=1
  elif [ "$markers" -lt "$min_markers" ]; then
    echo "FAIL: $file has $markers ticket-poll markers (pinned >= $min_markers)." >&2
    echo "  A poll site was removed; governed loops must keep polling." >&2
    status=1
  else
    echo "ok: $file ($loops loops, $markers poll markers)"
  fi
}

# file                              max loops   min poll markers
# cdcl.rs: the conflict and decision strides poll inside the main search
# loop; its third marker is the solver setup-memory charge in
# solve_charged. The race's cancel flag is read on every conflict and
# decision, outside the strides.
check crates/topology/src/cdcl.rs         11          3
# solvability.rs: the backtracker's per-node charge, and the constraint
# index's memory charge when the orbit path builds a system.
check crates/topology/src/solvability.rs   2          2
# protocol.rs: the orbit path's round rows, expansion group elements
# and emission rows poll on strides (3). The streaming round loop that
# the complex builder and the facet-class table share polls every 64
# frontier rows, serial and chunked (2), and charges each round's
# frontier and arena growth (2); the complex materialization and the
# table's class pass each charge their lookup memory and poll every
# 4,096 facets (4).
check crates/topology/src/protocol.rs      1         11
# theorem11.rs: the certificate's facet, ridge and vertex passes poll
# every 4,096 items; its one `while` is union-find's path walk.
check crates/topology/src/theorem11.rs     1          3
# local.rs: the repair engine's restart/move loops are all bounded
# `for` loops; the move loop polls on a 4096-step stride and every
# restart's construction charges its decisions. (The race's cancel
# flag is read on every step and construction class; it is no ticket
# poll and carries no marker.)
check crates/topology/src/local.rs         0          2
# run.rs: query admission polls once per query, and the atlas polls
# once per (n, m) family stride. With no other thread tripping tickets,
# polls are the only way a deadline is seen.
check crates/engine/src/run.rs             1          2

exit "$status"

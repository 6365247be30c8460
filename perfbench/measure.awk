# External measurement command for the external-search workload.
#
#   awk -f measure.awk PARAMS SRC PATTERN
#
# PARAMS holds "H <host-only units>" and one "L <parent> <units> <speedup>"
# line per eligible loop (parent: index of the enclosing eligible loop, -1
# for none). SRC is the annotated source; each "#pragma acc kernels" line
# counts one kernel. PATTERN is the pattern.json the planner wrote.
#
# A loop runs on the device when its bit or its parent's bit is set. The
# device time grows with the kernel count k by the factor (20 + k) / 20, so
# costs are deliberately not additive over regions. Prints the planner's
# measurement line "t_total t_cpu_part t_dev_part 1" in seconds, with all
# digits. corpus.Program.ext_measure computes the same formula in Python.

BEGIN { n = 0; k = 0 }
FILENAME == ARGV[1] && $1 == "H" { host = $2 }
FILENAME == ARGV[1] && $1 == "L" { parent[n] = $2; units[n] = $3; speedup[n] = $4; n++ }
FILENAME == ARGV[2] && /^#pragma acc kernels/ { k++ }
FILENAME == ARGV[3] { pattern = pattern $0 }

END {
    if (!match(pattern, /"bits": *\[[^]]*\]/)) { print "no bits in pattern"; exit 1 }
    list = substr(pattern, RSTART, RLENGTH)
    sub(/^[^[]*\[/, "", list)
    gsub(/[^01,]/, "", list)
    if (split(list, bits, ",") != n) { print "pattern length mismatch"; exit 1 }
    dev_raw = 0.0
    for (i = 0; i < n; i++) {
        on_dev = bits[i + 1] == 1 || (parent[i] >= 0 && bits[parent[i] + 1] == 1)
        if (on_dev) dev_raw = dev_raw + units[i] / speedup[i]
        else host = host + units[i]
    }
    t_cpu = host / 1000000000
    t_dev = (k * 60000 + dev_raw * (20 + k) / 20) / 1000000000
    printf "%.17g %.17g %.17g 1\n", t_cpu + t_dev, t_cpu, t_dev
}

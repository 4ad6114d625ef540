"""Set-up probe: import capaf, parse a config and build its cap mesh.

Usage: python3 perfbench/setup_child.py CONFIG

The mesh is built at the config's own level.  Prints one JSON line with
the mesh node count and the imported capaf file, so the caller can check
that the checkout's sources were used.
"""

import json
import sys


def main() -> int:
    config_path = sys.argv[1]
    import capaf
    from capaf.capgeom import build_cap_mesh
    from capaf.config import parse_config

    cfg = parse_config(config_path)
    mesh = build_cap_mesh(cfg.cap_config())
    print(json.dumps({"nodes": mesh.node_count, "capaf_file": capaf.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

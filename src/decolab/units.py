"""Pinned CODATA constants.

All package APIs work in natural units (hbar = k_B = 1); the CLI and
`qbm_soliton_width(si=True)` convert SI quantities with these constants.
"""

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K
YEAR = 3.15576e7        # s, Julian year

"""Expected values of the tables that ``verify`` checks, embedded as data.

Tables carry neutral ids (T1, T2, T3, T4_orders, T5, T8, T9, T10, census)
with descriptive row labels. Class columns are always in the fixed order
+P, P1, P2,2, P2,3, P3,2, P3,3. Values that no command prints, such as the
P3,2 coset multiplication table, are kept with the tests that check them.
"""

from __future__ import annotations

CLASS_NAMES = ("+P", "P1", "P2,2", "P2,3", "P3,2", "P3,3")

# Standard minimal representatives: negative edges given as pairs of
# 2-subset vertex labels (v_ij written as "ij").
STANDARD_NEGATIVE_EDGES = {
    "+P": (),
    "P1": (("12", "34"),),
    "P2,2": (("14", "25"), ("34", "15")),
    "P2,3": (("13", "24"), ("14", "23")),
    "P3,2": (("14", "25"), ("34", "15"), ("24", "35")),
    "P3,3": (("12", "34"), ("13", "24"), ("14", "23")),
}

# T1: negative pentagon and hexagon counts per class.
NEGATIVE_PENTAGONS = (0, 4, 6, 8, 6, 12)
NEGATIVE_HEXAGONS = (0, 4, 6, 4, 10, 0)

# T2/T3: frustration index and frustration number per class.
FRUSTRATION_INDEX = (0, 1, 2, 2, 3, 3)
FRUSTRATION_NUMBER = (0, 1, 2, 2, 3, 3)

# T4: automorphism and switching-automorphism group orders and labels.
AUT_ORDERS = (120, 8, 2, 8, 6, 24)
AUT_LABELS = ("S5", "D4", "Z2", "D4", "S3", "S4")
SWAUT_ORDERS = (120, 8, 4, 8, 60, 120)
SWAUT_LABELS = ("S5", "D4", "V4", "D4", "A5", "S5")

# T5: isomorphic copies and switching-equivalence classes per class orbit.
COPIES = (1, 15, 60, 15, 20, 5)
SWITCHING_CLASSES = (1, 15, 30, 15, 2, 1)

# Census totals: 512 signatures per switching class.
SIGNATURE_COUNTS = tuple(512 * c for c in SWITCHING_CLASSES)
TOTAL_SIGNATURES = 32768
TOTAL_SWITCHING_CLASSES = 64

# T8: chromatic number and zero-free chromatic number per class.
CHI = (1, 1, 1, 1, 1, 1)
CHI_STAR = (2, 2, 2, 2, 2, 1)

# T9: independent-set balance counts, negative hexagons, and 3-color data.
ALPHA0 = (1, 0, 0, 0, 0, 0)
ALPHA1 = (10, 2, 0, 0, 0, 0)
ALPHA2 = (30, 14, 6, 4, 0, 0)
CHI3_DIFFERENCE = (0, -8, -12, 16, -40, 82)
CHI3 = (120, 112, 108, 136, 80, 202)

# T10: twelve columns, each class and its negation; None marks
# "not clusterable".
T10_COLUMNS = ("+P", "-P", "P1", "-P1", "P2,2", "-P2,2",
               "P2,3", "-P2,3", "P3,2", "-P3,2", "P3,3", "-P3,3")
CLUSTER_NUMBER = (1, 3, None, 3, None, 3, None, 3, None, 4, None, 2)
INCLUSTERABILITY = (0, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0)

"""State-level techno-economics of hydrogen production.

Levelized cost and carbon intensity of hydrogen from three electrolysis
technologies (Alkaline, PEM, SOEC) and from steam-methane reforming with
and without 90% carbon capture, per U.S. state, with learning-curve and
grid-decarbonization projections to 2050.
"""

__version__ = "0.1.0"

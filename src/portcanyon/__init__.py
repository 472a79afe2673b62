"""portcanyon: 28 GHz container-canyon propagation toolkit.

Canyon propagation model, measurement-campaign statistics (angular spectrum,
spatial correlation, vehicle impact), log-distance regression, link-budget
coverage planning, and a seeded synthetic campaign generator feeding the
same pipelines as measured data.
"""

__version__ = "0.1.0"

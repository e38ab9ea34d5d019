"""Job admission policies: gatekeeping newly submitted jobs."""

from functools import partial

from repro.policies.admission.accept_all import AcceptAll
from repro.policies.admission.threshold import ThresholdAdmission
from repro.policies.admission.quota import UserQuotaAdmission

__all__ = ["AcceptAll", "ThresholdAdmission", "UserQuotaAdmission"]

#: Admission-policy registry: name -> zero-argument factory, keyed by the
#: ``name`` the built instance reports.  The three thresholds are the
#: Fig. 12-13 variants ("Accept 1.5x / 1.2x / 1x" of the cluster's GPUs).
ADMISSION_POLICIES = {
    AcceptAll.name: AcceptAll,
    "accept-1.5x": partial(ThresholdAdmission, threshold_factor=1.5),
    "accept-1.2x": partial(ThresholdAdmission, threshold_factor=1.2),
    "accept-1x": partial(ThresholdAdmission, threshold_factor=1.0),
    UserQuotaAdmission.name: UserQuotaAdmission,
}

SELECT time.month, COUNT(*) AS n FROM sale, time
WHERE sale.timeid = time.id GROUP BY time.month HAVING time.month >= 1 AND n > 'x'

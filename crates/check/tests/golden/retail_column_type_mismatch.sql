SELECT product.category, COUNT(*) AS n FROM sale, product, time
WHERE sale.productid = product.id AND sale.timeid = time.id
  AND product.brand = time.id AND product.category = product.id
GROUP BY product.category
